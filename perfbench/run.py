"""drsplit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-n100 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads are described in ``drsbench/workloads.py``.

A run sets up (imports drsplit, warms up each solver on a seed outside
the workload's range, builds any inputs), then runs passes; a pass is one
batch of the workload (``drsbench/workloads.py``).  Each round runs the
workload's fixed number of batches, at least 100 drt solves, in order,
and the rounds follow one another.  The work of a run is fixed, so
``--seconds`` only names the length it is sized for (``run_seconds`` in
``BENCHMARK.json``).  The end-to-end metrics take each solve, and the
rest of each batch's wall, at its fastest round, and each drt solve at
its fastest call; ``setup_s`` is the fastest of the run's own set-up and fresh processes that only set up,
started between passes spread over the run.  Every solve goes through
the correctness gate (``drsbench/gates.py``), and every repeat of a batch
must reproduce its exact work counts.

``--trace 0`` records only the four coarse spans the end-to-end metrics
and the exact counts need (drt_solve latency, run_single results,
estimator call counts).  ``--trace 1`` runs each of the workload's trace
batches untraced and then with a span on every layer entry point, and
reports the per-layer metrics summed over the traced passes;
``trace.overhead_s`` is traced minus untraced wall.

The last line of standard output is the result as one JSON object.  The
lines above it are a readable table with all six end-to-end metrics
(including ``failed_frac``) and the environment.  Everything a run writes
goes to ``.bench_run/`` at the checkout root: the CSVs of the CLI path, a
details file per run, and the spans of the first traced pass (``.npz``).
The exit code is 0 for a correct run, 1 when a gate failed, 2 for a
usage error or a checkout without ``src/drsplit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# neither imports numpy or drsplit, which the set-up timer must see
from drsbench.metrics import (END_TO_END, LAYER_METRICS, exact_counts,
                              layer_metrics, merge)
from drsbench.tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

WORKLOADS = ("paper-n100", "spectral-n500", "faces-certified-n100")
SETUP_PROBES = 6        # fresh processes that only set up; plus the run's own
# one BLAS thread: the box is shared, and at n <= 500 the matvecs are too
# small to gain from a second thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30,
                   help="accepted for the common interface; the work of a "
                   "run is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def environment(loadavg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "machine": platform.machine(),
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """The passes of one run and what the gates found in them."""

    def __init__(self, wl, out_dir: Path):
        from drsbench.gates import Gate  # imports drsplit: after set-up

        self.wl = wl
        self.out_dir = out_dir
        self.gate = Gate(wl.instance)
        self.passes: list[dict] = []
        self.problems: list[str] = []
        self.drt_samples = 0

    def one_pass(self, k: int, full: bool) -> dict:
        """Run batch k with the light spans, or every layer span if full."""
        from drsbench.workloads import install  # imports drsplit

        with Tracer() as tr:
            install(tr, full)
            t0 = time.perf_counter()
            solves = self.wl.run_pass(tr, k)
            wall = time.perf_counter() - t0
        summary = tr.summary()
        failed = self.gate.judge(solves)
        self.problems += self.wl.output_problems(k, solves)
        p = dict(batch=k, traced=full, wall=wall, solves=len(solves),
                 ok=len(solves) - failed, summary=summary,
                 counts=exact_counts(solves, summary),
                 solve_s=tr.durations(self.wl.solve_span),
                 drt_ms=[1e3 * d for d in tr.durations("drt.drt_solve")])
        if full and not any(q["traced"] for q in self.passes):
            tr.dump(self.out_dir / f"spans-{self.wl.name}.npz")
        self.passes.append(p)
        return p

    def _same_counts(self, a: dict, b: dict) -> None:
        if a["counts"] != b["counts"]:
            self.problems.append(
                f"batch {a['batch']} counts differ between passes: "
                f"{a['counts']} vs {b['counts']}")

    def measure(self, probe=None, probes: int = 0) -> list:
        """Each round runs batches 0, 1, ...; every repeat of a batch must
        reproduce its exact counts.

        probe(), if given, is called ``probes`` times, between passes at
        even steps over the run; returns what the calls returned.
        """
        order = [k for _ in range(self.wl.rounds)
                 for k in range(self.wl.batches)]
        at = {i * len(order) // probes for i in range(probes)}
        found = []
        for i, k in enumerate(order):
            if i in at:
                found.append(probe())
            p = self.one_pass(k, full=False)
            if i >= self.wl.batches:
                self._same_counts(self.passes[k], p)
        return found

    def measure_traced(self) -> None:
        """Each of the workload's trace batches untraced, then traced."""
        for k in range(self.wl.trace_batches):
            plain = self.one_pass(k, full=False)
            self._same_counts(plain, self.one_pass(k, full=True))

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """End-to-end metrics, each solve, and the rest of each batch's
        wall, at its fastest round, and each drt solve at its fastest call.

        The host's speed drifts by tens of percent from second to second
        and over minutes; the best of repeats spread over the run drifts
        least, and the shorter the timed piece, the more often one of its
        repeats lands in a fast moment.
        """
        rounds: dict[int, list[dict]] = {}
        for p in self.passes:
            rounds.setdefault(p["batch"], []).append(p)
        ok = sum(min(p["ok"] for p in ps) for ps in rounds.values())
        wall = sum(
            sum(min(t) for t in zip(*(p["solve_s"] for p in ps)))
            + min(p["wall"] - sum(p["solve_s"]) for p in ps)
            for ps in rounds.values())
        drt_ms = [min(calls) for ps in rounds.values()
                  for calls in zip(*(p["drt_ms"] for p in ps))]
        self.drt_samples = len(drt_ms)
        return {
            "solves_per_s": ok / wall,
            "drt_solve_ms_p50": statistics.median(drt_ms),
            "drt_solve_ms_p90":
                statistics.quantiles(drt_ms, n=10, method="inclusive")[8],
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": self.gate.failed / self.gate.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        """Layer metrics summed over the traced passes."""
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        counts = {key: sum(p["counts"][key] for p in traced)
                  for key in traced[0]["counts"]}
        overhead = sum(p["wall"] for p in traced) - sum(p["wall"]
                                                        for p in plain)
        return layer_metrics(merge(p["summary"] for p in traced), counts,
                             overhead)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drsplit" / "__init__.py").is_file():
        print(f"error: {SRC / 'drsplit'} not found; run from a drsplit "
              "checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    loadavg = os.getloadavg()
    OUT.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    from drsbench import workloads
    base = workloads.instance_seed_base(args.seed)
    wl = workloads.WORKLOADS[args.workload](out_dir=OUT, base=base)
    wl.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = Run(wl, out_dir=OUT)
    setups = [setup_s]
    if args.trace:
        run.measure_traced()
        values = run.per_layer()
        units = dict(LAYER_METRICS)
        notes = {}
    else:
        setups += run.measure(lambda: setup_probe(args), SETUP_PROBES)
        values = run.end_to_end(min(setups))
        units = END_TO_END
        notes = {
            "solves_per_s": f"{wl.batches} batches x {wl.rounds} rounds",
            "drt_solve_ms_p50": f"{run.drt_samples} drt solves",
            "drt_solve_ms_p90": f"{run.drt_samples} drt solves",
            "setup_s": f"fastest of {len(setups)} set-ups",
            "failed_frac": f"{run.gate.failed}/{run.gate.attempted} solves",
        }
    env = environment(loadavg)
    print(f"== {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.passes)} passes, "
          f"{sum(p['wall'] for p in run.passes):.2f} s in passes")
    print("env " + json.dumps(env))
    print("exact counts of batch 0 " + json.dumps(run.passes[0]["counts"]))
    for name, value in values.items():
        print(f"  {name:<38}{value:>16.6g} {units[name]:<6}"
              f"{notes.get(name, '')}")
    for msg in run.problems:
        print(f"FAIL {msg}")
    print(f"failed {run.gate.failed} of {run.gate.attempted} solves")

    correct = not run.problems and run.gate.failed == 0
    reported = {k: v for k, v in values.items() if k != "failed_frac"}
    result = {
        "correct": correct,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in reported.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed,
                   trace=args.trace, seconds=args.seconds, env=env,
                   all_metrics=values, setups_s=setups,
                   problems=run.problems,
                   passes=[{k: p[k] for k in ("batch", "traced", "wall",
                                              "solves", "ok", "counts",
                                              "drt_ms")}
                           for p in run.passes])
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
