"""tools/mutants.py: its committed list against the source, and its runner
on two mutants.  The full run, one tier-1 run per mutant, is a CI job."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
MUTANTS = {m.name: m for m in mutants.MUTANTS}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_old_occurs_once_and_each_outcome_is_explained(name):
    m = MUTANTS[name]
    # a refactor that moves guarded code must move its mutant too
    assert mutants.occurrences(m) == 1 and m.old != m.new
    # a mutant that its killer does not kill says why
    assert m.expect in ("killed", "others", "survived")
    assert (m.known is None) == (m.expect == "killed")


def test_each_expected_killer_is_a_collected_test(request):
    assert len(MUTANTS) == len(mutants.MUTANTS)
    missing = sorted({m.killer for m in MUTANTS.values()}
                     - {item.nodeid for item in request.session.items})
    if missing:     # a run of less than tier-1: collect them apart
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", *missing],
            cwd=ROOT, capture_output=True, text=True,
            env=os.environ | mutants.ENV | {"PYTHONPATH": "src"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert set(missing) <= set(proc.stdout.splitlines())


def test_the_runner_reports_a_kill_and_fails_on_a_survivor(capsys):
    # each against its killer alone: the slack mutant fails it, and a
    # comment edit, planted as if it should fail it too, fails nothing
    kill = MUTANTS["slack-1e-6"]
    survivor = kill._replace(
        name="planted-survivor", old="# the Euclidean length of a vector",
        new="# the length of a vector")
    operators = ROOT / "src" / "drsplit" / "operators.py"
    source = operators.read_text()
    assert mutants.run([kill, survivor], killers_only=True) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"killed    slack-1e-6 (item 2): {kill.killer} failed",
        f"    {kill.killer}",
        "survived  planted-survivor (item 2): no test failed  UNEXPECTED"]
    assert operators.read_text() == source      # the mutants went to a copy
