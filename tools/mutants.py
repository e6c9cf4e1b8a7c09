#!/usr/bin/env python3
"""Mutation run: which tier-1 tests fail on each mutant of src/drsplit.

    python tools/mutants.py

MUTANTS is the committed list.  Each entry replaces an exact `old` text,
which must occur once in its file under src/drsplit, by `new`; it names
the ROADMAP item it guards and the tier-1 test id expected to kill it.
`expect` is how the mutant fares today: "killed" (its killer fails),
"others" (tests fail, its killer not among them) or "survived" (no test
fails).  An entry that expects anything but "killed" carries a `known`
note naming what kills it or why nothing can.

The checkout that holds this file (its working tree, less .git, caches
and build outputs) is copied once to a temporary directory, because
perfbench/tests/conftest.py puts its own checkout's src first on
sys.path: a mutated copy of the package alone would leave those tests on
the unmutated source.  In the copy, the tier-1 command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

must pass unmutated, with tests/test_mutants.py left out: it checks
the list against the source, which every mutant changes.  Then each
mutant is applied, the command runs, and the file is restored.  The
report is one line per mutant,

    killed    NAME (item I): KILLER failed
    others    NAME (item I): KILLER passed
    survived  NAME (item I): no test failed

each followed by the ids of the tests that failed, indented: that is
the kill matrix.  A line whose outcome is not the entry's `expect` ends
in UNEXPECTED.  The run exits 1 on any UNEXPECTED line, on an unmutated
copy that fails, and on an entry whose `old` does not occur exactly once;
otherwise 0.  A full run is one tier-1 run per mutant, plus one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what the copy leaves out: version control, caches and build outputs
IGNORE = (".git", "__pycache__", ".pytest_cache", ".bench_run", ".benchmarks",
          "build", "*.egg-info")
FAILED_LOG = "MUTANTS_FAILED_LOG"
# checks the list against the source, which every mutant changes
SELF_TEST = "tests/test_mutants.py"
# no stale bytecode of a restored file, and no third-party pytest plugin:
# tier-1 needs none, and autoloading a machine's plugins can cost a run
# more than its test does
ENV = {"PYTHONDONTWRITEBYTECODE": "1", "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}


class Mutant(NamedTuple):
    name: str
    file: str           # relative to src/drsplit
    old: str
    new: str
    item: int
    killer: str         # a tier-1 test id
    expect: str = "killed"
    known: str | None = None


MUTANTS = (
    Mutant("tie-noise-zero", "drs.py",
           "return (1e-13 * (1.0 + scale)) ** 2", "return 0.0", 14,
           "tests/test_golden_counts.py::test_batch_counts_match_pinned_table"
           "[semidefinite-drt]"),
    Mutant("theta-twice", "drs.py",
           "state.tau = cfg.theta ** state.beta * state.tau0",
           "state.tau = cfg.theta ** (2 * state.beta) * state.tau0", 14,
           "tests/test_drs.py::test_null_step_freezes_z_and_shrinks_tau"),
    Mutant("outer-sigma-unsquared", "drs.py",
           "rhs = cfg.sigma ** 2 * float(r_test.dot(r_test))",
           "rhs = cfg.sigma * float(r_test.dot(r_test))", 14,
           "tests/test_golden_counts.py::test_batch_counts_match_pinned_table"
           "[definite-drt]"),
    Mutant("a-half", "drs.py",
           "a = (w - y) / gamma", "a = (w - y) / (2.0 * gamma)", 14,
           "tests/test_drs.py::test_residual_identity_every_step"),
    Mutant("ergodic-correction-dropped", "drs.py",
           "ebar = (S_e - zv) / j", "ebar = S_e / j", 15,
           "tests/test_acceptance.py::test_accept_11_transport_formula_oracle"),
    Mutant("termination-without-eps-a", "drs.py",
           "eps_a + eps_b <= cfg.eps_tol", "eps_b <= cfg.eps_tol", 10,
           "tests/test_drs.py::test_check_termination"),
    Mutant("contract-bound-doubled", "drs.py",
           "if not lhs <= tau_prev + slack(tau_prev):",
           "if not lhs <= 2.0 * tau_prev + slack(tau_prev):", 2,
           "tests/test_drt.py::test_a_bsolver_built_for_another_gamma_breaks"
           "_the_outer_contract[paper]"),
    Mutant("replay-tolerance-unscaled", "drs.py",
           "tol = 1e-12 * (1.0 + t.residual + _norm(cert.z_prev) + _norm(z))",
           "tol = 1e-12 * (1.0 + t.residual)", 22,
           "tests/test_sweep.py::test_every_small_instance_passes_every_check"
           "[faces-semidefinite]"),
    # its killer errors in set-up, when the ladder collapses near
    # convergence, not on a certificate verdict (item 2)
    Mutant("eps-offset", "tseng.py",
           "eps = d2_sq / (4.0 * eta)", "eps = d2_sq / (4.0 * eta) + 1e-11",
           2, "tests/test_acceptance.py::test_accept_02_inner_certificates"),
    Mutant("eps-halved", "tseng.py",
           "eps = d2_sq / (4.0 * eta)", "eps = d2_sq / (8.0 * eta)", 2,
           "tests/test_tseng.py::test_hand_step_certificate"),
    Mutant("inner-v-perturbed", "tseng.py",
           "V = (Z_prev - Z_next) / p.gamma",
           "V = (Z_prev - Z_next) / p.gamma + 1e-7", 2,
           "tests/test_acceptance.py::test_accept_02_inner_certificates",
           "others", "no certificate check sees it: the shift adds gamma^2 n "
           "1e-14 to lhs, under slack()'s absolute 1e-10 floor (item 2).  "
           "Killed by the bitwise comparisons of the textbook Tseng loop "
           "and of the mirrored faces run"),
    Mutant("correction-dropped", "tseng.py",
           "z_next = z_tilde - gamma * (F1.eval(z_tilde) - f1_prime)",
           "z_next = z_tilde", 3,
           "tests/test_drt.py::test_skew_f1_certificates_verify", "others",
           "no certificate check sees it: verify_hpe_rows tests the inequality, "
           "not v in T^eps(z_tilde) (item 3).  Killed by "
           "test_skew_f1_inner_solve_reaches_resolvent, a distance test, and by "
           "the step-3 tests, whose planted wrong correction it erases, and by "
           "test_one_f2_eval_per_step's count of F1 calls"),
    Mutant("correction-f1-at-z-prime", "tseng.py",
           "z_next = z_tilde - gamma * (F1.eval(z_tilde) - f1_prime)",
           "z_next = z_tilde - gamma * (F1.eval(z_prime) - f1_prime)", 3,
           "tests/test_drt.py::test_skew_f1_certificates_verify", "others",
           "no certificate check sees it: verify_hpe_rows tests the inequality, "
           "not v in T^eps(z_tilde) (item 3).  Killed by "
           "test_skew_f1_inner_solve_reaches_resolvent, a distance test, and by "
           "the step-3 tests, whose planted wrong correction it erases"),
    Mutant("resolvent-at-gamma", "tseng.py",
           "z_tilde = p.C.resolvent(gamma / 2.0, w)\n    z_next",
           "z_tilde = p.C.resolvent(gamma, w)\n    z_next", 14,
           "tests/test_drt.py::test_skew_f1_inner_solve_reaches_resolvent"),
    Mutant("exit-without-eps", "tseng.py",
           "if d1_sq + gamma * d2_sq / (2.0 * eta) <= tau_hat:",
           "if d1_sq <= tau_hat:", 14,
           "tests/test_tseng.py::test_inner_loop_matches_textbook_reference"
           "_bitwise[faces]"),
    Mutant("gamma-max-sigma-unsquared", "tseng.py",
           "g = 4.0 * eta * sigma ** 2 /", "g = 4.0 * eta * sigma /", 16,
           "tests/test_tseng.py::test_gamma_max_frozen_and_limit"),
    Mutant("h-half-dropped", "tseng.py",
           "h = self.gamma * self.F2.e / 2.0", "h = self.gamma * self.F2.e",
           14, "tests/test_tseng.py::test_affine_step_matches_textbook"
           "_reference_to_round_off[paper]"),
    Mutant("hpe-lam-eps", "hpe.py",
           "lhs = dd + 2.0 * lam * eps", "lhs = dd + lam * eps", 2,
           "tests/test_hpe.py::test_verify_hand_example"),
    Mutant("pointwise-one-over-j", "hpe.py",
           "rho = d0 / np.sqrt(j) *", "rho = d0 / j *", 15,
           "tests/test_hpe.py::test_pointwise_bound_frozen"),
    Mutant("slack-1e-6", "operators.py",
           "return 1e-10 * (1.0 + abs(magnitude))",
           "return 1e-6 * (1.0 + abs(magnitude))", 2,
           "tests/test_operators.py::test_slack_scales_with_magnitude"),
    Mutant("sign-row-n-plus-1", "operators.py",
           "(self.K.dot(z) / self.K.size)", "(self.K.dot(z) / (self.K.size + 1))",
           14, "tests/test_operators.py::test_project_nullspace_hand_example"),
)


def occurrences(m: Mutant) -> int:
    return (ROOT / "src" / "drsplit" / m.file).read_text().count(m.old)


def _tier1(copy: Path, log: Path, tests: list[str]) -> tuple[int, list[str]]:
    # (pytest exit code, failed test ids in order); the ids come from this
    # module loaded as a pytest plugin, since a summary line can't be split
    # where a parameter id holds spaces
    log.write_text("")
    env = dict(os.environ, **ENV, **{FAILED_LOG: str(log)},
               PYTHONPATH=os.pathsep.join((str(copy / "src"),
                                           str(copy / "tools"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "mutants", "-p",
         "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=" + SELF_TEST, *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, list(dict.fromkeys(log.read_text().splitlines()))


def pytest_runtest_logreport(report):
    # a test that fails in set-up, call or tear-down, as a plugin hook
    if report.failed:
        with open(os.environ[FAILED_LOG], "a") as f:
            f.write(report.nodeid + "\n")


pytest_collectreport = pytest_runtest_logreport     # a module that errors


def _verdict(m: Mutant, code: int, failed: list[str]) -> tuple[str, str]:
    if code not in (0, 1):
        return f"exit {code}", "pytest did not run to the end"
    if not failed:
        return "survived", "no test failed"
    if m.killer in failed:
        return "killed", f"{m.killer} failed"
    return "others", f"{m.killer} passed"


def run(mutants=MUTANTS, killers_only: bool = False) -> int:
    """Report each mutant; 0, or 1 on any unexpected outcome (see above).

    killers_only runs each mutant against its expected killer alone, and
    the unmutated check against the killers, instead of tier-1.
    """
    status = 0
    for m in mutants:
        count = occurrences(m)
        if count != 1:
            print(f"error     {m.name}: `old` occurs {count} times in "
                  f"src/drsplit/{m.file}, not once")
            status = 1
    if status:
        return status
    with tempfile.TemporaryDirectory() as tmp:
        copy, log = Path(tmp) / "checkout", Path(tmp) / "failed.txt"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORE))
        code, failed = _tier1(
            copy, log, sorted({m.killer for m in mutants}) if killers_only
            else [])
        if code != 0:
            print(f"the unmutated copy fails (pytest exit {code}); "
                  "no mutant can be judged")
            print("".join(f"    {t}\n" for t in failed), end="")
            return 1
        for m in mutants:
            path = copy / "src" / "drsplit" / m.file
            source = path.read_text()
            path.write_text(source.replace(m.old, m.new))
            try:
                code, failed = _tier1(copy, log, [m.killer] if killers_only
                                      else [])
            finally:
                path.write_text(source)
            got, detail = _verdict(m, code, failed)
            line = f"{got:<9} {m.name} (item {m.item}): {detail}"
            if got != m.expect:
                line += "  UNEXPECTED"
                status = 1
            print(line)
            print("".join(f"    {t}\n" for t in failed), end="", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(run())
