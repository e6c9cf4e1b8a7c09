"""tools/ab_time.py: the paired A/B report and its check on the work."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


def _ab_time(ref):
    return subprocess.run(
        [sys.executable, "-W", "error", str(TOOL), str(ref), "--family",
         "faces", "--n", "10", "--solves", "3", "--reps", "2"],
        capture_output=True, text=True, timeout=120)


def test_a_against_a_reports_a_ratio_per_repetition_and_overall():
    # REF is the package directory itself, so no git history is needed
    proc = _ab_time(ROOT / "src" / "drsplit")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("ab_time: faces n=10, 3 solves x 2 reps")
    reps = [float(m.group(1)) for m in
            (re.fullmatch(r"rep \d: median change/REF (\S+)", s)
             for s in lines[1:3]) if m]
    assert len(reps) == 2 and len(lines) == 4
    overall = re.fullmatch(r"median over 2 reps: (\S+)", lines[3])
    # one copy of the code against another: no tenfold gap either way
    assert overall and all(0.1 < r < 10 for r in reps)


def test_a_copy_that_does_other_work_is_flagged(tmp_path):
    # the edited copy stops 1000 times earlier, so its counts differ
    ref = tmp_path / "drsplit"
    shutil.copytree(ROOT / "src" / "drsplit", ref,
                    ignore=shutil.ignore_patterns("__pycache__"))
    drt = ref / "drt.py"
    source = drt.read_text()
    assert "<= tol\n" in source
    drt.write_text(source.replace("<= tol\n", "<= 1e3 * tol\n", 1))
    proc = _ab_time(ref)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(
        "FLAGGED solve 0: the records differ (iters change ")
    assert "median" not in proc.stdout
