"""tools/mutants.py: its committed list against the source, and its runner
on three mutants.  The full run, one tier-1 run per mutant, is a CI job."""

import importlib.util
import os
import re
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
    assert m.expect in mutants.OUTCOMES
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


def test_the_runner_reports_a_kill_and_fails_on_a_survivor(capsys,
                                                           monkeypatch):
    # each against its killer alone: the slack mutant fails it, a planted
    # loop in slack() outlasts the limit, and a comment edit, planted as
    # if it should fail it too, fails nothing; the limit is cut to three
    # times the unmutated run, so that the stall costs a few seconds
    monkeypatch.setattr(mutants, "LIMIT_FACTOR", 3)
    kill = MUTANTS["slack-1e-6"]
    stall = kill._replace(name="planted-stall", new="while True: pass",
                          expect="timeout", known="planted")
    survivor = kill._replace(
        name="planted-survivor", old="# the Euclidean length of a vector",
        new="# the length of a vector")
    operators = ROOT / "src" / "drsplit" / "operators.py"
    source = operators.read_text()
    assert mutants.run([kill, stall, survivor], killers_only=True) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"killed    slack-1e-6 (item 2): {kill.killer} failed",
                         f"    {kill.killer}"]
    assert re.fullmatch(r"timeout   planted-stall \(item 2\): stopped after "
                        r"\d+ s", lines[2])
    assert lines[3:] == [
        "survived  planted-survivor (item 2): no test failed  UNEXPECTED",
        "killed 1, others 0, survived 1, timeout 1",
        "tests that kill no mutant: 0 of 1"]
    assert operators.read_text() == source      # the mutants went to a copy
