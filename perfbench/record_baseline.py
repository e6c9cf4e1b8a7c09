"""Record a baseline: every workload, untraced and traced, on two seeds.

    python3 perfbench/record_baseline.py --out perfbench/results/baseline.json

Runs ``run.py`` once per (workload, seed, trace) in a fresh process, one
after the other, and gathers the details files those runs leave in
``.bench_run/``.  Seed 0 is the default seed; seed 1 is the second seed,
kept so that a later claim can be checked on a seed it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = p.parse_args(argv)

    results: dict = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=600)
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
                d = json.loads(path.read_text())
                entry = results.setdefault(workload, {}).setdefault(
                    f"seed{seed}", {})
                entry["per_layer" if trace else "end_to_end"] = d["all_metrics"]
                entry[f"batches_trace{trace}"] = len(d["passes"])
                if not trace:
                    entry["counts_batch0"] = d["passes"][0]["counts"]
                    entry["env"] = d["env"]
                entry[f"attempted_trace{trace}"] = d["attempted"]
                entry[f"failed_trace{trace}"] = d["failed"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
