import subprocess
import sys

import pytest

import drsplit.bench as bench
import drsplit.cli as cli
from drsplit.bench import read_records
from drsplit.cli import build_parser, main
from drsplit.errors import IterationBudgetExceeded


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["--n"], ["--n", "2", "--bogus"],
                 ["--n", "2", "--algo", "admm"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_spec_errors_exit_one():
    with pytest.raises(SystemExit) as ei:
        main(["--n", "0"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--sigma", "1.5"])
    assert ei.value.code == 1


def test_trace_restricted_to_drt(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--algo", "tos", "--trace",
              str(tmp_path / "t.csv")])
    assert ei.value.code == 1


def test_successful_batch_prints_summary(capsys):
    rc = main(["--n", "2", "--instances", "3", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert "algo=drt" in head and "n=2" in head and "instances=3" in head
    assert "stop=delta" in head
    assert "iters" in out and "residual" in out
    assert "instance set-up (eigvalsh of Q, rfdrs beta):" in out


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


def test_out_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["--n", "2", "--instances", "2", "--out", str(out)])
    assert rc == 0
    records = read_records(out)
    assert len(records) == 2
    summary = (tmp_path / "bench.summary.csv").read_text()
    assert summary.startswith("column,min,max,mean")


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
                                  ["--tol", "inf"]])
def test_nan_tol_and_negative_seed_exit_one_before_the_batch(
        argv, monkeypatch, capsys):
    _no_batch(monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(["--n", "2", "--instances", "1"] + argv)
    assert ei.value.code == 1
    assert argv[0].lstrip("-") in capsys.readouterr().err


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

    def flaky(spec, i, stats=None):
        if i == 0:
            raise IterationBudgetExceeded("synthetic failure")
        return real(spec, i, stats=stats)

    monkeypatch.setattr(bench, "run_single", flaky)
    rc = main(["--n", "2", "--instances", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "(1 failed)" in captured.out
    assert "instance 0" in captured.err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "drsplit.cli", "--n", "2", "--instances", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "algo=drt" in proc.stdout


def test_parser_defaults():
    args = build_parser().parse_args(["--n", "7"])
    assert args.instances == 100
    assert args.definite is True
    assert args.algo == "drt"
    assert args.stop == "delta"
    assert args.tol == 1e-6
    assert args.sigma == 0.99
    assert args.theta == 0.01
    assert args.seed == 0
