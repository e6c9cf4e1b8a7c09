import io
import os
import re
import subprocess
import sys
import time

import pytest

import drsplit.bench as bench
import drsplit.cli as cli
import drsplit.drs as drs_module
from drsplit.bench import BenchSpec, read_records
from drsplit.cli import main
from drsplit.drs import EXTRAGRADIENT
from drsplit.errors import IterationBudgetExceeded


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["--n"], ["--n", "2", "--bogus"],
                 ["--n", "2", "--algo", "admm"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_trace_restricted_to_drt(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--algo", "tos", "--trace",
              str(tmp_path / "t.csv")])
    assert ei.value.code == 1


_WALL_SPLIT = re.compile(r"^batch wall (\S+) s = solvers (\S+) s \(sum of "
                         r"time_s\) \+ rest (\S+) s \(instances", re.M)


def _wall_split(out):
    # (wall, solvers, rest) of the timing line, in seconds
    m = _WALL_SPLIT.search(out)
    assert m, out
    return tuple(float(g) for g in m.groups())


def test_successful_batch_prints_summary(capsys):
    rc = main(["--n", "2", "--instances", "3", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert "algo=drt" in head and "n=2" in head and "instances=3" in head
    assert "stop=delta" in head
    assert "iters" in out and "residual" in out
    wall, solvers, rest = _wall_split(out)
    assert solvers >= 0 and rest >= 0
    assert f"{solvers + rest:.3f}" == f"{wall:.3f}"


@pytest.mark.parametrize("algo", ["drt", "tos", "rfdrs"])
def test_the_solvers_part_is_the_sum_of_time_s(algo, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["--n", "5", "--instances", "4", "--algo", algo,
                 "--out", str(out)]) == 0
    _, solvers, _ = _wall_split(capsys.readouterr().out)
    assert f"{solvers:.3f}" == f"{sum(r.time_s for r in read_records(out)):.3f}"


def test_the_rest_holds_the_reference_oracle(monkeypatch, capsys):
    # the oracle runs outside every solver's timer: 20 ms more per call
    # moves the rest by 60 ms on three instances and the solvers' part not
    argv = ["--n", "2", "--instances", "3"]
    base = []
    for _ in range(2):
        assert main(argv) == 0
        base.append(_wall_split(capsys.readouterr().out))
    real = bench.reference_solution

    def slow(inst):
        time.sleep(0.02)
        return real(inst)

    monkeypatch.setattr(bench, "reference_solution", slow)
    assert main(argv) == 0
    _, solvers, rest = _wall_split(capsys.readouterr().out)
    assert rest - min(b[2] for b in base) >= 0.055
    assert solvers - min(b[1] for b in base) < 0.02


def test_semidefinite_and_baseline_run(capsys):
    rc = main(["--n", "2", "--instances", "2", "--semidefinite",
               "--algo", "rfdrs", "--tol", "1e-5"])
    assert rc == 0
    assert "semidefinite" in capsys.readouterr().out.splitlines()[0]


def test_baseline_head_line_names_no_stop_rule(capsys):
    # --stop selects drt's rule only; a tos head line must not name one
    rc = main(["--n", "2", "--instances", "1", "--algo", "tos",
               "--stop", "residual"])
    assert rc == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert "algo=tos" in head and "stop=" not in head


@pytest.mark.parametrize("kind", ["--definite", "--semidefinite"])
@pytest.mark.parametrize("algo", ["drt", "tos", "rfdrs"])
def test_one_dimensional_batch_exits_zero(algo, kind, tmp_path, capsys):
    # at n = 1 rfdrs's nullspace-restricted curvature vanishes
    out = tmp_path / "n1.csv"
    assert main(["--n", "1", "--instances", "3", "--algo", algo, kind,
                 "--out", str(out)]) == 0
    records = read_records(out)
    assert [r.error for r in records] == [None] * 3
    assert all(r.iters >= 1 and r.residual <= 1e-6 for r in records)


def test_trace_written(tmp_path):
    trace = tmp_path / "steps.csv"
    rc = main(["--n", "2", "--instances", "1", "--trace", str(trace)])
    assert rc == 0
    assert trace.read_text().startswith("# instance 0")


def _no_batch(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the batch ran")

    monkeypatch.setattr(cli, "run_batch", never)


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_missing_output_directory_fails_before_the_batch(
        flag, tmp_path, monkeypatch, capsys):
    _no_batch(monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1",
              flag, str(tmp_path / "missing_dir" / "x.csv")])
    assert ei.value.code == 1
    assert "missing_dir" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--tol", "nan"], ["--seed", "-1"],
                                  ["--tol", "inf"], ["--n", "0"]])
def test_nan_tol_and_negative_seed_exit_one_before_the_batch(
        argv, monkeypatch, capsys):
    _no_batch(monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1"] + argv)
    assert ei.value.code == 1
    assert argv[0].lstrip("-") in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--sigma", "--theta"])
def test_sigma_and_theta_are_not_options(flag, monkeypatch, capsys):
    # qp.drt_problem owns both values; the CLI rejects them as usage
    _no_batch(monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "5", flag, "0.5"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments" in err


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_a_directory_as_output_fails_before_the_batch(
        flag, tmp_path, monkeypatch, capsys):
    _no_batch(monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1", flag, str(tmp_path)])
    assert ei.value.code == 1
    assert "is a directory" in capsys.readouterr().err


def test_a_directory_at_the_summary_path_fails_before_the_batch(
        tmp_path, monkeypatch, capsys):
    _no_batch(monkeypatch)
    (tmp_path / "bench.summary.csv").mkdir()
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1",
              "--out", str(tmp_path / "bench.csv")])
    assert ei.value.code == 1
    assert "bench.summary.csv" in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["x.csv", "x.summary.csv", "sub/../x.csv",
                                   "link.csv"],
                         ids=["out", "summary", "dotdot", "symlink"])
def test_outputs_in_one_file_fail_before_the_batch(
        trace, tmp_path, monkeypatch, capsys):
    # the records CSV, its summary and the trace would overwrite each other
    _no_batch(monkeypatch)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "x.csv")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1", "--out", "x.csv",
              "--trace", trace])
    assert ei.value.code == 1
    assert "are one file" in capsys.readouterr().err


def test_failed_instance_exits_two(monkeypatch, capsys):
    real = bench.run_single

    def flaky(spec, i):
        if i == 0:
            raise IterationBudgetExceeded("synthetic failure")
        return real(spec, i)

    monkeypatch.setattr(bench, "run_single", flaky)
    rc = main(["--n", "2", "--instances", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "(1 failed)" in captured.out
    assert "instance 0" in captured.err


def _plant_a_small_d0(monkeypatch):
    # d0/100: every run breaks the pointwise bound at its first step
    real = bench.nearest_zero

    def too_close(inst, x_star, gamma, z0):
        z, d0 = real(inst, x_star, gamma, z0)
        return z, d0 / 100

    monkeypatch.setattr(bench, "nearest_zero", too_close)
    return "extragradient step 1: the pointwise bound fails at d0="


def _plant_an_overshoot(monkeypatch):
    # the first extragradient step moves z 1% too far
    real = drs_module.drs_iterate

    def overshoot(state, cfg, bsolver, A):
        z = state.z
        real(state, cfg, bsolver, A)
        if state.trace[-1].step == EXTRAGRADIENT and state.n_extragradient == 1:
            state.z = z + 1.01 * (state.z - z)
        return state

    monkeypatch.setattr(drs_module, "drs_iterate", overshoot)
    return "extragradient step 1: residual readings diverge"


@pytest.mark.parametrize("plant", [_plant_a_small_d0, _plant_an_overshoot])
def test_a_failed_trace_check_is_an_error_row_and_exits_two(
        plant, monkeypatch, tmp_path, capsys):
    # no traceback: each instance is an error row with its stderr line,
    # --out is written, and the trace holds no block of a failed instance
    message = plant(monkeypatch)
    out, trace = tmp_path / "o.csv", tmp_path / "t"
    rc = main(["--n", "20", "--instances", "3", "--out", str(out),
               "--trace", str(trace)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "(3 failed)" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        assert line.startswith(f"instance {i}: InvariantViolation: {message}")
    assert [r.error for r in read_records(out)] == ["error row"] * 3
    assert trace.read_text() == ""


def test_closed_stdout_exits_three_and_writes_the_outputs(tmp_path):
    # stdout is a pipe whose read end is already closed, so the summary's
    # write fails with EPIPE: no traceback, exit 3, and --out still written
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "o.csv"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "drsplit.cli", "--n", "1", "--instances",
             "3", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert [r.error for r in read_records(out)] == [None] * 3
    summary = (tmp_path / "o.summary.csv").read_text()
    assert summary.startswith("column,min,max,mean")


def test_closed_stdout_takes_precedence_over_a_failed_instance(
        monkeypatch, tmp_path, capsys):
    # the summary's write fails as on a closed pipe; main points the fd
    # that stdout reports at devnull (here a file of its own) and exits 3
    real = bench.run_single

    def flaky(spec, i):
        if i == 0:
            raise IterationBudgetExceeded("synthetic failure")
        return real(spec, i)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(bench, "run_single", flaky)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        rc = main(["--n", "2", "--instances", "2"])
    finally:
        os.close(fd)
    assert rc == 3
    assert "instance 0: IterationBudgetExceeded" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "drsplit.cli", "--n", "2", "--instances", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "algo=drt" in proc.stdout


def test_parser_defaults_are_the_spec_defaults(monkeypatch):
    specs = []

    def capture(spec, trace_path=None):
        specs.append(spec)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_batch", capture)
    with pytest.raises(SystemExit):
        main(["--n", "5"])
    # n, instances, definite, algo, stop, tol and seed
    assert specs == [BenchSpec(n=5)] == [
        BenchSpec(5, 100, True, "drt", "delta", 1e-6, 0)]
    assert specs[0].definite is True

