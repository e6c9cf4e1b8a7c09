#!/usr/bin/env python3
"""Mutation run: which tier-1 tests fail on each mutant of src/drsplit.

    python tools/mutants.py

MUTANTS is the committed list.  Each entry replaces an exact `old` text,
which must occur once in its file under src/drsplit, by `new`; it names
the ROADMAP item it guards and the tier-1 test id expected to kill it.
`expect` is how the mutant fares today: "killed" (its killer fails),
"others" (tests fail, its killer not among them), "survived" (no test
fails) or "timeout" (the run outlasts its limit).  An entry that expects
anything but "killed" carries a `known` note naming what kills it or why
nothing can.

The checkout that holds this file (its working tree, less .git, caches
and build outputs) is copied to a temporary directory, because
perfbench/tests/conftest.py puts its own checkout's src first on
sys.path: a mutated copy of the package alone would leave those tests on
the unmutated source.  In a copy, the tier-1 command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

must pass unmutated, with tests/test_mutants.py left out: it checks
the list against the source, which every mutant changes.  Then each
mutant is applied in a copy, the command runs, and the file is restored.
min(4, cpu count) copies run mutants at once; the report keeps the
list's order.  A mutated run that takes more than LIMIT_FACTOR times the
unmutated run's wall is stopped.  The report is one line per mutant,

    killed    NAME (item I): KILLER failed
    others    NAME (item I): KILLER passed
    survived  NAME (item I): no test failed
    timeout   NAME (item I): stopped after L s

each followed by the ids of the tests that failed, indented (none for a
timeout): that is the kill matrix.  A line whose outcome is not the
entry's `expect` ends in UNEXPECTED.  Two lines end the report: the
count of each outcome, and

    tests that kill no mutant: K of T

where T counts the tests the unmutated run collected.  The run exits 1
on any UNEXPECTED line, on an unmutated copy that fails, and on an entry
whose `old` does not occur exactly once; otherwise 0.  A full run is one
tier-1 run per mutant, plus one.
"""

from __future__ import annotations

import collections
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what the copy leaves out: version control, caches and build outputs
IGNORE = (".git", "__pycache__", ".pytest_cache", ".bench_run", ".benchmarks",
          "build", "*.egg-info")
FAILED_LOG, COLLECTED_LOG = "MUTANTS_FAILED_LOG", "MUTANTS_COLLECTED_LOG"
# a mutated run stops at this multiple of the unmutated run's wall: a
# broken step or a stop rule that never fires would run each solve to its
# budget, the reference oracle's 10**6 steps included.  The slowest run
# that ends, a-half's, takes about 9 times the unmutated wall
LIMIT_FACTOR = 20
OUTCOMES = ("killed", "others", "survived", "timeout")
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
    # the polish's reduced KKT system: every faces reference then runs the
    # 1e-12 tail, which the killer rules out
    Mutant("pattern-border-row-negated", "qp.py",
           "A[nf, :nf] = inst.K[fidx]", "A[nf, :nf] = -inst.K[fidx]", 29,
           "tests/test_qp.py::test_reference_solution_passes_kkt_at_1e10"
           "_without_the_tail"),
    Mutant("multiplier-sign-swapped", "qp.py",
           "pos = inst.K > 0", "pos = inst.K < 0", 29,
           "tests/test_qp.py::test_kkt_check_verdicts_equal_the_coordinate"
           "_loop"),
    Mutant("nearest-zero-lower-clamp-dropped", "qp.py",
           "lam = min(max(lam, lower), upper)", "lam = min(lam, upper)", 29,
           "tests/test_qp.py::test_nearest_zero_on_hand_examples"),
    # the package's public contracts (item 29)
    Mutant("tos-half-step", "baselines.py",
           "return z + (xA - xB)", "return z + 0.5 * (xA - xB)", 29,
           "tests/test_baselines.py::test_steps_match_textbook_reference"
           "_bitwise[True]"),
    Mutant("tos-step-size-one", "baselines.py",
           "return 1.99 * beta\n", "return 1.0 * beta\n", 29,
           "tests/test_baselines.py::test_one_eta_per_instance"),
    Mutant("rfdrs-forward-unprojected", "baselines.py",
           "g = inst.A.resolvent(gamma, inst.F2.eval(x))",
           "g = inst.F2.eval(x)", 29,
           "tests/test_baselines.py::test_steps_match_textbook_reference"
           "_bitwise[True]"),
    Mutant("rfdrs-n1-fallback-dropped", "baselines.py",
           "return 1.99 * beta if np.isfinite(beta) else tos_gamma(inst)",
           "return 1.99 * beta", 29,
           "tests/test_baselines.py::test_one_dimensional_rfdrs_takes_the"
           "_tos_step[True-generate_instance]"),
    Mutant("rfdrs-solution-block-in-the-box", "baselines.py",
           "rfdrs_gamma(inst), rfdrs_iterate, inst.A",
           "rfdrs_gamma(inst), rfdrs_iterate, inst.C", 29,
           "tests/test_baselines.py::test_steps_match_textbook_reference"
           "_bitwise[True]"),
    Mutant("baseline-f2-evals-off-by-one", "baselines.py",
           "inner=0, f2_evals=iters,", "inner=0, f2_evals=iters + 1,", 29,
           "tests/test_baselines.py::test_run_baseline_record_fields"),
    Mutant("delta-stop-at-z0", "drt.py",
           "return _norm(state.z - state.hist_z_prev[-1]) <= tol",
           "return _norm(state.z - state.hist_z_prev[0]) <= tol", 29,
           "tests/test_drt.py::test_delta_stop_ignores_null_steps", "timeout",
           "the rule compares z_k with the start, which a run leaves for good, "
           "so it never fires and every delta-stop solve runs to max_iter; "
           "its killer fails on the budget error when run alone"),
    Mutant("delta-stop-on-null-steps", "drt.py",
           "if not state.trace or state.trace[-1].step != EXTRAGRADIENT:",
           "if not state.trace:", 29,
           "tests/test_drt.py::test_delta_stop_ignores_null_steps"),
    Mutant("tolerance-stop-without-ergodic", "drt.py",
           "or (state.n_extragradient >= 1", "or (state.n_extragradient < 0",
           29, "tests/test_drt.py::test_tolerance_stop_falls_back_to_the"
           "_ergodic_average"),
    Mutant("record-null-counts-extragradient", "drt.py",
           "null=state.beta,", "null=state.n_extragradient,", 29,
           "tests/test_drt.py::test_full_solve_record_consistency"),
    Mutant("record-inner-skips-the-first-step", "drt.py",
           "inner = sum(t.inner for t in state.trace)",
           "inner = sum(t.inner for t in state.trace[1:])", 29,
           "tests/test_drt.py::test_full_solve_record_consistency"),
    Mutant("abs-err-on-z", "bench.py",
           "result = SingleResult(rec, quad.x,",
           "result = SingleResult(rec, state.z,", 29,
           "tests/test_bench.py::test_abs_err_is_measured_on_the_solution"
           "_block[drt]"),
    Mutant("records-csv-residual-rounded", "bench.py",
           "repr(float(r.residual))", "f\"{r.residual:.6g}\"", 29,
           "tests/test_bench.py::test_records_csv_round_trip"),
    Mutant("error-row-on-a-nan-abs-err", "bench.py",
           "counts = (None if math.isnan(nums[0])",
           "counts = (None if math.isnan(nums[-1])", 29,
           "tests/test_bench.py::test_records_csv_error_rows"),
    Mutant("summary-counts-error-rows", "bench.py",
           "good = [r for r in records if r.error is None]",
           "good = list(records)", 29,
           "tests/test_bench.py::test_run_batch_marks_failures_and_continues"),
    Mutant("create-unlinks-a-write-protected-file", "bench.py",
           "if (stat.S_ISREG(st.st_mode) and st.st_mode & stat.S_IWUSR",
           "if (stat.S_ISREG(st.st_mode)", 29,
           "tests/test_bench.py::test_a_write_protected_out_is_not_replaced"),
    Mutant("create-drops-the-old-mode", "bench.py",
           "st.st_mode & 0o777)", "0o666)", 29,
           "tests/test_bench.py::test_rewrite_keeps_the_old_mode_and_a_new"
           "_file_gets_the_umask"),
    Mutant("exit-two-before-three", "cli.py",
           "return 3 if stdout_closed else 2 if failed else 0",
           "return 2 if failed else 3 if stdout_closed else 0", 29,
           "tests/test_cli.py::test_closed_stdout_takes_precedence_over_a"
           "_failed_instance"),
    Mutant("usage-exit-two", "cli.py",
           "self.exit(1, f", "self.exit(2, f", 29,
           "tests/test_cli.py::test_usage_errors_exit_one"),
    Mutant("broken-pipe-uncaught", "cli.py",
           "except BrokenPipeError:", "except ValueError:", 29,
           "tests/test_cli.py::test_closed_stdout_exits_three_and_writes"
           "_the_outputs"),
    Mutant("one-file-by-name", "cli.py",
           "if os.path.realpath(path) == os.path.realpath(other_path):",
           "if path == other_path:", 29,
           "tests/test_cli.py::test_outputs_in_one_file_fail_before_the"
           "_batch[dotdot]"),
    Mutant("trace-with-a-baseline-allowed", "cli.py",
           'if args.trace and args.algo != "drt":', "if False:", 29,
           "tests/test_cli.py::test_trace_restricted_to_drt"),
)


def occurrences(m: Mutant) -> int:
    return (ROOT / "src" / "drsplit" / m.file).read_text().count(m.old)


def _tier1(copy: Path, tests: list[str], limit: float | None = None
           ) -> tuple[int | None, list[str], list[str], float]:
    # (pytest exit code, None past the limit; failed test ids in order;
    # collected test ids; wall seconds).  The ids come from this module
    # loaded as a pytest plugin, since a summary line can't be split where
    # a parameter id holds spaces
    failed_log = copy.with_name(copy.name + ".failed")
    collected_log = copy.with_name(copy.name + ".collected")
    failed_log.write_text("")
    collected_log.write_text("")
    env = dict(os.environ, **ENV, **{FAILED_LOG: str(failed_log),
                                     COLLECTED_LOG: str(collected_log)},
               PYTHONPATH=os.pathsep.join((str(copy / "src"),
                                           str(copy / "tools"))))
    t0 = time.perf_counter()
    # a session of its own, so that a stopped run takes with it the
    # processes its tests started
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "mutants", "-p",
         "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=" + SELF_TEST, *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    wall = time.perf_counter() - t0
    failed = list(dict.fromkeys(failed_log.read_text().splitlines()))
    return (code, [] if code is None else failed,
            collected_log.read_text().splitlines(), wall)


def pytest_runtest_logreport(report):
    # a test that fails in set-up, call or tear-down, as a plugin hook
    if report.failed:
        with open(os.environ[FAILED_LOG], "a") as f:
            f.write(report.nodeid + "\n")


pytest_collectreport = pytest_runtest_logreport     # a module that errors


def pytest_collection_finish(session):
    with open(os.environ[COLLECTED_LOG], "w") as f:
        f.write("".join(item.nodeid + "\n" for item in session.items))


def _verdict(m: Mutant, code: int | None, failed: list[str],
             limit: float) -> tuple[str, str]:
    if code is None:
        return "timeout", f"stopped after {limit:.0f} s"
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
        copies = queue.SimpleQueue()     # the copies no mutant is using
        for j in range(max(1, min(4, os.cpu_count() or 1, len(mutants)))):
            copy = Path(tmp) / f"checkout{j}"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORE))
            copies.put(copy)
        code, failed, collected, wall = _tier1(
            copy, sorted({m.killer for m in mutants}) if killers_only
            else [])
        if code != 0:
            print(f"the unmutated copy fails (pytest exit {code}); "
                  "no mutant can be judged")
            print("".join(f"    {t}\n" for t in failed), end="")
            return 1
        limit = LIMIT_FACTOR * wall

        def mutated(m: Mutant):
            copy = copies.get()
            path = copy / "src" / "drsplit" / m.file
            source = path.read_text()
            path.write_text(source.replace(m.old, m.new))
            try:
                return _tier1(copy, [m.killer] if killers_only else [],
                              limit)
            finally:
                path.write_text(source)
                copies.put(copy)

        outcomes, killing = collections.Counter(), set()
        with ThreadPoolExecutor(copies.qsize()) as pool:
            for m, (code, failed, _, _) in zip(mutants,
                                               pool.map(mutated, mutants)):
                got, detail = _verdict(m, code, failed, limit)
                outcomes[got] += 1
                killing.update(failed)
                line = f"{got:<9} {m.name} (item {m.item}): {detail}"
                if got != m.expect:
                    line += "  UNEXPECTED"
                    status = 1
                print(line)
                print("".join(f"    {t}\n" for t in failed), end="",
                      flush=True)
    print(", ".join(f"{got} {outcomes.pop(got, 0)}" for got in OUTCOMES)
          + "".join(f", {got} {count}" for got, count in outcomes.items()))
    print(f"tests that kill no mutant: {len(set(collected) - killing)} of "
          f"{len(collected)}")
    return status


if __name__ == "__main__":
    sys.exit(run())
