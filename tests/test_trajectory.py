"""The committed benchmark trajectory: one BENCH_*.json per change.

Each file at the repository root maps the file names of the seed-0
perfbench runs, both workloads at --trace 0 and 1, to the run results as
perfbench/run.py wrote them to .bench_run/.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNS = [f"{w}-seed0-trace{t}.json"
        for w in ("paper-n100", "faces-certified-n100") for t in (0, 1)]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_not_empty():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_trajectory_file_holds_the_four_correct_seed0_runs(path):
    runs = json.loads(path.read_text())
    missing = [name for name in RUNS if name not in runs]
    assert missing == [], f"{path.name} lacks {missing}"
    for name in RUNS:
        run = runs[name]
        assert run["correct"] is True, f"{path.name}: {name} is not correct"
        env = run["env"]
        assert "numpy" in env and "nproc" in env, (
            f"{path.name}: {name} does not record numpy and nproc")
