"""Batch driver, CSV schema, summaries, trace output."""

import dataclasses
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import drsplit.bench as bench
from drsplit.bench import (
    CSV_COLUMNS,
    BenchSpec,
    format_summary,
    initial_point,
    read_records,
    run_batch,
    run_single,
    summarize,
    summary_csv_path,
    write_records,
    write_summary_csv,
)
import drsplit.drs as drs_module
import drsplit.drt as drt_module
import drsplit.qp as qp_module
from drsplit.drs import EXTRAGRADIENT
from drsplit.drt import RunRecord
from drsplit.errors import (InvariantViolation, IterationBudgetExceeded,
                            OracleFailure, ParseError)
from drsplit.operators import CocoerciveMap
from drsplit.qp import generate_instance, reference_solution


def _strip_time(rec):
    return dataclasses.replace(rec, time_s=0.0)


def test_spec_validation():
    for bad in (dict(n=0), dict(instances=0), dict(algo="pdhg"),
                dict(stop="energy"), dict(tol=0.0), dict(tol=float("nan")),
                dict(tol=float("inf")), dict(seed=-1),
                dict(n=float("nan")), dict(n=2.5), dict(n=4.0),
                dict(instances=float("nan")), dict(instances=2.5),
                dict(seed=float("nan")), dict(seed=1.5)):
        with pytest.raises(ValueError):
            BenchSpec(n=4, **bad) if "n" not in bad else BenchSpec(**bad)
    # numpy integers are integers
    spec = BenchSpec(n=np.int64(4), instances=np.int32(2), seed=np.uint8(3))
    assert (spec.n, spec.instances, spec.seed) == (4, 2, 3)


def test_initial_point_scale_and_determinism():
    for n, seed in ((1, 0), (10, 3), (100, 7)):
        z = initial_point(n, seed)
        assert z.shape == (n,)
        assert np.linalg.norm(z) == pytest.approx(10.0 * math.sqrt(n),
                                                  rel=1e-12)
        assert_allclose(z, initial_point(n, seed), rtol=0, atol=0)
    assert not np.allclose(initial_point(10, 0), initial_point(10, 1))


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_initial_point_rejects_a_dimension_below_one(n):
    # n = 0 used to divide 0 by 0, and n = -1 failed inside numpy
    with pytest.raises(ValueError, match="n must be >= 1"):
        initial_point(n, 1)


def test_run_single_drt():
    spec = BenchSpec(n=4, instances=1, seed=11)
    res = run_single(spec, 0)
    rec = res.record
    assert rec.instance == 0
    assert rec.algo == "drt"
    assert rec.n == 4
    assert rec.iters == rec.extragrad + rec.null
    assert np.isfinite(rec.abs_err)
    assert res.state is not None and res.cfg is not None
    assert len(res.state.trace) == rec.iters


def test_run_single_baseline():
    # run_single, not run_baseline, fills instance and abs_err
    z_star = reference_solution(generate_instance(4, True, 13))
    for algo in ("tos", "rfdrs"):
        spec = BenchSpec(n=4, instances=3, algo=algo, seed=11)
        res = run_single(spec, 2)
        assert res.record.algo == algo
        assert res.record.instance == 2
        assert res.state is None
        assert np.isfinite(res.record.abs_err)
        assert res.record.abs_err == float(
            np.linalg.norm(res.solution - z_star))


@pytest.mark.parametrize("algo", ["drt", "tos", "rfdrs"])
def test_abs_err_is_measured_on_the_solution_block(algo):
    # the paper family's optimum is the origin; the governing iterate z of
    # every scheme stays far from it while its solution block lands on it
    records = run_batch(BenchSpec(n=100, instances=20, algo=algo))
    errs = [r.abs_err for r in records]
    assert sum(errs) / len(errs) <= 1e-8


def test_run_batch_deterministic_modulo_time():
    spec = BenchSpec(n=3, instances=4, seed=2)
    a = run_batch(spec)
    b = run_batch(spec)
    assert [r.instance for r in a] == [0, 1, 2, 3]
    assert [_strip_time(r) for r in a] == [_strip_time(r) for r in b]


def test_run_batch_marks_failures_and_continues(monkeypatch):
    spec = BenchSpec(n=3, instances=3, seed=5)
    real = bench.run_single

    def flaky(s, i):
        if i == 1:
            raise IterationBudgetExceeded("synthetic failure")
        return real(s, i)

    monkeypatch.setattr(bench, "run_single", flaky)
    records = run_batch(spec)
    assert len(records) == 3
    assert records[0].error is None and records[2].error is None
    assert "synthetic failure" in records[1].error
    assert math.isnan(records[1].time_s)
    stats = summarize(records)
    # the failed instance is excluded from every statistic
    assert stats["iters"][0] >= 1


def test_run_batch_records_a_non_finite_operator_output(monkeypatch):
    # instance 1's F2 returns NaN on its fifth call: that instance becomes
    # an error row naming the outer call and inner step, the rest solve
    spec = BenchSpec(n=5, instances=3, seed=5)
    real = qp_module.qp_operators

    def poisoned(inst):
        inst = real(inst)
        if inst.seed != spec.seed + 1:
            return inst
        f2, calls = inst.F2.eval, []

        def eval(z):
            calls.append(None)
            return f2(z) * (np.nan if len(calls) == 5 else 1.0)

        # the instance is its operator set, and drt_problem reads its F2
        # after this check
        object.__setattr__(inst, "F2", CocoerciveMap(eval=eval, eta=inst.eta))
        return inst

    # the recipe run_single calls looks qp_operators up in drsplit.qp
    monkeypatch.setattr(qp_module, "qp_operators", poisoned)
    records = run_batch(spec)
    assert [r.instance for r in records] == [0, 1, 2]
    assert records[0].error is None and records[2].error is None
    assert re.fullmatch(r"ContractViolation: outer B-solve call \d+: inner "
                        r"step \d+: point contains non-finite entries",
                        records[1].error)
    assert math.isnan(records[1].time_s)


@pytest.mark.parametrize("algo", ["drt", "tos", "rfdrs"])
def test_a_poisoned_instance_is_one_error_row(algo, monkeypatch):
    # instance 1's F2 returns NaN: at n=10 the TOS reference oracle meets
    # it first (OracleFailure, abs_err stays nan), then the solver, whose
    # ContractViolation becomes that instance's error row; 0 and 2 solve
    spec = BenchSpec(n=10, instances=3, algo=algo, seed=5)
    real = bench.generate_instance

    def poisoned(n, definite, seed):
        inst = real(n, definite, seed)
        if seed == spec.seed + 1:
            nan_f2 = CocoerciveMap(eval=lambda z: np.full_like(z, np.nan),
                                   eta=inst.eta)
            object.__setattr__(inst, "F2", nan_f2)
        return inst

    monkeypatch.setattr(bench, "generate_instance", poisoned)
    records = run_batch(spec)
    assert [r.instance for r in records] == [0, 1, 2]
    assert records[0].error is None and records[2].error is None
    assert records[0].iters > 0 and records[2].iters > 0
    where = {"drt": "outer B-solve call 1: inner step 1",
             "tos": "tos iteration 1", "rfdrs": "rfdrs iteration 1"}[algo]
    assert re.fullmatch(rf"ContractViolation: {where}: point contains "
                        r"non-finite entries", records[1].error)
    assert math.isnan(records[1].time_s)


def test_a_three_value_bsolver_is_one_error_row_per_instance(monkeypatch):
    # a B-solver written to the three-value protocol breaks its contract
    # on every instance: each becomes an error row, and the batch runs on
    def three_values(sub, z, tau, max_inner=1000, cert_log=None):
        return z / 2.0, z / 2.0, 0.0

    monkeypatch.setattr(drt_module, "tseng_solve", three_values)
    records = run_batch(BenchSpec(n=10, instances=2))
    assert [r.instance for r in records] == [0, 1]
    for r in records:
        assert re.fullmatch(r"ContractViolation: outer B-solve call 1: "
                            r"bsolver returned a tuple, not \(x, b, eps_b, "
                            r"inner\): .*", r.error)
        assert math.isnan(r.time_s)


def test_a_collapsing_ladder_is_one_error_row_per_instance(monkeypatch):
    # a B-solve whose enlargement is 1e-11 too large stays inside the
    # contract's absolute slack but fails every relative-error test: the
    # ladder underflows to tau = 0, and each instance becomes an error
    # row naming the collapse instead of an untyped error from tseng_solve
    tseng_solve = drt_module.tseng_solve

    def loose(sub, z, tau, max_inner=1000, cert_log=None):
        x, b, eps_b, inner = tseng_solve(sub, z, tau, max_inner=max_inner,
                                         cert_log=cert_log)
        return x, b, eps_b + 1e-11, inner

    monkeypatch.setattr(drt_module, "tseng_solve", loose)
    records = run_batch(BenchSpec(n=10, instances=2))
    assert [r.instance for r in records] == [0, 1]
    for r in records:
        assert re.fullmatch(r"IterationBudgetExceeded: outer step \d+: the "
                            r"tolerance ladder collapsed: theta\*\*beta \* "
                            r"tau0 is 0 at beta=\d+", r.error)
        assert math.isnan(r.time_s)


def test_trace_requires_drt(tmp_path):
    with pytest.raises(ValueError):
        run_batch(BenchSpec(n=3, instances=1, algo="rfdrs"),
                  trace_path=tmp_path / "t.csv")


def test_trace_file_contents(tmp_path):
    spec = BenchSpec(n=3, instances=2, seed=3)
    path = tmp_path / "trace.csv"
    records = run_batch(spec, trace_path=path)
    lines = path.read_text().splitlines()
    seps = [i for i, l in enumerate(lines) if l.startswith("# instance")]
    assert len(seps) == 2
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == sum(r.iters for r in records)
    ks, steps = [], []
    for line in body:
        # exactly five columns: a trace record's inner count is not written
        k, step, tau, resid, eps_b = line.split(",")
        ks.append(int(k))
        steps.append(step)
        assert float(tau) > 0.0
        assert float(resid) >= 0.0
        assert float(eps_b) >= 0.0
    assert set(steps) <= {"extragradient", "null"}
    # per block, k counts 1..iters
    assert ks[:records[0].iters] == list(range(1, records[0].iters + 1))


def _trace_blocks(path):
    return [line for line in path.read_text().splitlines()
            if line.startswith("#")]


def test_trace_cross_check_reads_the_trace_it_writes(monkeypatch, tmp_path):
    # instance 1's second extragradient step has its trace residual off by
    # 1%; the iterates and certificates are untouched, so only the trace
    # shows it: that instance is an error row, and the trace holds the
    # blocks of the others
    real = bench.run_single

    def misrecorded(spec, i):
        result = real(spec, i)
        if i == 1:
            trace = result.state.trace
            k = [j for j, t in enumerate(trace)
                 if t.step == EXTRAGRADIENT][1]
            trace[k] = trace[k]._replace(residual=1.01 * trace[k].residual)
        return result

    monkeypatch.setattr(bench, "run_single", misrecorded)
    records = run_batch(BenchSpec(n=20, instances=3), trace_path=tmp_path / "t")
    assert [r.error is None for r in records] == [True, False, True]
    assert records[1].error.startswith(
        "InvariantViolation: extragradient step 2: residual readings diverge")
    assert _trace_blocks(tmp_path / "t") == ["# instance 0", "# instance 2"]


def test_a_traced_batch_without_a_reference_still_checks_its_readings(
        monkeypatch, tmp_path):
    # every reference solve fails: no instance has a d0, so the bounds are
    # not read (abs_err stays nan and each clean block is written), but the
    # residual readings still are, and instance 1's first extragradient
    # step, planted 1% too far, makes that instance an error row
    def no_oracle(inst):
        raise OracleFailure("synthetic")

    real_iterate, real_single, planted = (drs_module.drs_iterate,
                                          bench.run_single, [])

    def overshoot(state, cfg, bsolver, A):
        z = state.z
        real_iterate(state, cfg, bsolver, A)
        if (planted and state.trace[-1].step == EXTRAGRADIENT
                and state.n_extragradient == 1):
            state.z = z + 1.01 * (state.z - z)
        return state

    def plant_in_one(spec, i):
        planted[:] = [True] if i == 1 else []
        return real_single(spec, i)

    envelopes = []
    monkeypatch.setattr(bench, "reference_solution", no_oracle)
    monkeypatch.setattr(bench, "envelope", lambda *a: envelopes.append(a))
    monkeypatch.setattr(drs_module, "drs_iterate", overshoot)
    monkeypatch.setattr(bench, "run_single", plant_in_one)
    records = run_batch(BenchSpec(n=20, instances=3), trace_path=tmp_path / "t")
    assert [r.error is None for r in records] == [True, False, True]
    assert records[1].error.startswith(
        "InvariantViolation: extragradient step 1: residual readings diverge")
    assert math.isnan(records[1].time_s)
    assert math.isnan(records[0].abs_err) and math.isnan(records[2].abs_err)
    assert records[0].iters > 0 and records[2].iters > 0
    assert _trace_blocks(tmp_path / "t") == ["# instance 0", "# instance 2"]
    assert envelopes == []


def test_a_trace_that_lost_a_record_is_an_error_row(monkeypatch, tmp_path):
    # instance 1's trace loses its last extragradient record, so the
    # history holds one row more than the trace; a pairing that stopped at
    # the shorter of the two would pass it
    real, counts = bench.run_single, []

    def truncated(spec, i):
        result = real(spec, i)
        if i == 1:
            trace = result.state.trace
            del trace[max(j for j, t in enumerate(trace)
                          if t.step == EXTRAGRADIENT)]
            counts.append(result.state.n_extragradient)
        return result

    monkeypatch.setattr(bench, "run_single", truncated)
    records = run_batch(BenchSpec(n=20, instances=3), trace_path=tmp_path / "t")
    assert [r.error is None for r in records] == [True, False, True]
    J = counts[0]
    assert records[1].error == (
        f"InvariantViolation: {J} extragradient steps in the history but "
        f"{J - 1} in the trace")
    assert _trace_blocks(tmp_path / "t") == ["# instance 0", "# instance 2"]


@pytest.mark.parametrize("oracle", [True, False],
                         ids=["reference", "no-reference"])
def test_a_traced_instance_builds_its_outer_rows_once(oracle, monkeypatch,
                                                      tmp_path):
    # with a reference the rows are built inside drs.envelope, without one
    # by bench itself; either way once per instance, for both checks
    real, states = drs_module.outer_certificates, []

    def spy(state, cfg):
        states.append(state)
        return real(state, cfg)

    def no_oracle(inst):
        raise OracleFailure("synthetic")

    monkeypatch.setattr(drs_module, "outer_certificates", spy)
    monkeypatch.setattr(bench, "outer_certificates", spy)
    if not oracle:
        monkeypatch.setattr(bench, "reference_solution", no_oracle)
    records = run_batch(BenchSpec(n=20, instances=3), trace_path=tmp_path / "t")
    assert [r.error for r in records] == [None] * 3
    assert [math.isfinite(r.abs_err) for r in records] == [oracle] * 3
    assert len(states) == 3 and len({id(s) for s in states}) == 3
    assert all(s.n_extragradient > 0 for s in states)


def test_a_semidefinite_residual_stop_batch_writes_every_block(tmp_path):
    # x* is not unique, so the d0 that the trace's bound check reads is
    # only an upper bound: every instance still passes and writes its block
    records = run_batch(BenchSpec(n=20, instances=5, definite=False,
                                  stop="residual"), trace_path=tmp_path / "t")
    assert [r.error for r in records] == [None] * 5
    assert _trace_blocks(tmp_path / "t") == [f"# instance {i}"
                                             for i in range(5)]


def test_a_benchmark_size_traced_batch_repeats_its_bytes(tmp_path):
    # n = 100, semidefinite: the replay and bound checks pass on every
    # instance, and a second run writes the same trace
    spec = BenchSpec(n=100, instances=10, definite=False)
    first, second = tmp_path / "first", tmp_path / "second"
    records = run_batch(spec, trace_path=first)
    assert [r.error for r in records] == [None] * 10
    assert _trace_blocks(first) == [f"# instance {i}" for i in range(10)]
    run_batch(spec, trace_path=second)
    assert second.read_bytes() == first.read_bytes()


def test_trace_rewrite_replaces_the_file(tmp_path):
    path, alias = tmp_path / "trace.csv", tmp_path / "alias.csv"
    run_batch(BenchSpec(n=3, instances=3, seed=3), trace_path=path)
    old = path.read_bytes()
    os.link(path, alias)
    run_batch(BenchSpec(n=3, instances=1, seed=3), trace_path=path)
    fresh = tmp_path / "fresh.csv"
    run_batch(BenchSpec(n=3, instances=1, seed=3), trace_path=fresh)
    assert alias.read_bytes() == old
    assert path.read_bytes() == fresh.read_bytes()   # no stale tail


def test_summarize_and_format():
    r1 = RunRecord(instance=0, algo="drt", n=2, iters=10, extragrad=8,
                   null=2, inner=12, f2_evals=12, time_s=0.5, residual=1e-7,
                   abs_err=float("nan"))
    r2 = RunRecord(instance=1, algo="drt", n=2, iters=20, extragrad=14,
                   null=6, inner=30, f2_evals=30, time_s=1.5, residual=3e-7,
                   abs_err=2.0)
    stats = summarize([r1, r2])
    assert stats["iters"] == (10.0, 20.0, 15.0)
    assert stats["abs_err"] == (2.0, 2.0, 2.0)  # nan cell skipped
    assert set(stats) == set(CSV_COLUMNS[3:])
    text = format_summary(stats, BenchSpec(n=2, instances=2), errors=1)
    assert "algo=drt n=2" in text.splitlines()[0]
    assert "(1 failed)" in text.splitlines()[0]
    assert any(l.startswith("iters") for l in text.splitlines())
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_all_nan_column():
    r = RunRecord(instance=0, algo="drt", n=2, iters=5, extragrad=5, null=0,
                  inner=5, f2_evals=5, time_s=0.1, residual=1e-8,
                  abs_err=float("nan"))
    stats = summarize([r])
    assert all(math.isnan(v) for v in stats["abs_err"])
    assert stats["iters"] == (5.0, 5.0, 5.0)


def test_records_csv_round_trip(tmp_path):
    spec = BenchSpec(n=3, instances=3, seed=9)
    records = run_batch(spec)
    path = tmp_path / "out.csv"
    write_records(records, path)
    back = read_records(path)
    assert back == records  # repr floats survive exactly; error excluded
    # summaries built before and after the round trip agree bit for bit
    assert summarize(back) == summarize(records)


def test_records_csv_error_rows(tmp_path):
    bad = RunRecord(instance=1, algo="drt", n=3, time_s=float("nan"),
                    error="IterationBudgetExceeded: synthetic")
    ok = RunRecord(instance=0, algo="drt", n=3, iters=4, extragrad=3, null=1,
                   inner=6, f2_evals=6, time_s=0.2, residual=1e-7,
                   abs_err=0.5)
    path = tmp_path / "mixed.csv"
    write_records([ok, bad], path)
    back = read_records(path)
    assert back[0] == ok
    assert back[1].error == "error row"
    assert back[1].instance == 1 and back[1].n == 3
    assert math.isnan(back[1].time_s)


def test_rewrite_replaces_the_file_and_a_hard_link_keeps_the_old(tmp_path):
    records = run_batch(BenchSpec(n=3, instances=3, seed=9))
    path, alias = tmp_path / "out.csv", tmp_path / "alias.csv"
    write_records(records, path)
    old = path.read_bytes()
    os.link(path, alias)
    write_records(records[:1], path)
    assert alias.read_bytes() == old
    assert len(path.read_text().splitlines()) == 2   # header, one row
    assert read_records(path) == records[:1]


def test_rewrite_keeps_the_old_mode_and_a_new_file_gets_the_umask(
        tmp_path):
    records = run_batch(BenchSpec(n=3, instances=2, seed=9))
    private, shared, fresh = (tmp_path / f"{name}.csv"
                              for name in ("private", "shared", "fresh"))
    old_umask = os.umask(0o022)
    try:
        write_records(records, private)
        private.chmod(0o600)
        write_records(records[:1], private)
        write_records(records, fresh)
        write_records(records, shared)
        assert shared.stat().st_mode & 0o777 == 0o644
        os.umask(0o077)     # the umask narrows the old mode
        write_records(records[:1], shared)
    finally:
        os.umask(old_umask)
    assert private.stat().st_mode & 0o777 == 0o600
    assert read_records(private) == records[:1]
    assert fresh.stat().st_mode & 0o777 == 0o644
    assert shared.stat().st_mode & 0o777 == 0o600


def test_symlinked_out_is_written_through(tmp_path):
    records = run_batch(BenchSpec(n=3, instances=2, seed=9))
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_records(records, target)
    link.symlink_to(target)
    write_records(records[:1], link)
    assert link.is_symlink()
    assert read_records(target) == records[:1]


def _refuse_unlink(path, *args, **kwargs):
    raise AssertionError(f"unlink({path!r})")


def test_a_device_is_never_unlinked(monkeypatch):
    monkeypatch.setattr(os, "unlink", _refuse_unlink)
    records = [RunRecord(instance=0, algo="drt", n=3, iters=4, extragrad=3,
                         null=1, inner=6, f2_evals=6, time_s=0.2,
                         residual=1e-7, abs_err=0.5)]
    write_records(records, os.devnull)


def test_a_write_protected_out_is_not_replaced(tmp_path, monkeypatch):
    records = run_batch(BenchSpec(n=3, instances=2, seed=9))
    path = tmp_path / "out.csv"
    write_records(records, path)
    path.chmod(0o444)
    before = path.stat()
    monkeypatch.setattr(os, "unlink", _refuse_unlink)
    if os.geteuid() != 0:
        with pytest.raises(PermissionError):
            write_records(records[:1], path)
        assert read_records(path) == records
    else:   # root may write it, so it is truncated in place as open() does
        write_records(records[:1], path)
        assert read_records(path) == records[:1]
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.skipif(os.geteuid() != 0, reason="chown needs root")
def test_another_users_out_is_truncated_in_place(tmp_path, monkeypatch):
    records = run_batch(BenchSpec(n=3, instances=2, seed=9))
    path = tmp_path / "out.csv"
    write_records(records, path)
    os.chown(path, 65534, 65534)
    before = path.stat()
    monkeypatch.setattr(os, "unlink", _refuse_unlink)
    write_records(records[:1], path)
    assert read_records(path) == records[:1]
    after = path.stat()
    assert (after.st_ino, after.st_uid) == (before.st_ino, 65534)


def test_a_refused_unlink_falls_back_to_truncation(tmp_path, monkeypatch):
    records = run_batch(BenchSpec(n=3, instances=3, seed=9))
    path = tmp_path / "out.csv"
    write_records(records, path)

    def refuse(path, *args, **kwargs):
        raise PermissionError(f"unlink({path!r})")

    monkeypatch.setattr(os, "unlink", refuse)
    write_records(records[:1], path)
    assert read_records(path) == records[:1]


def test_read_records_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("instance,algo,n\n")
    with pytest.raises(ParseError) as ei:
        read_records(p)
    assert ei.value.lineno == 1
    p.write_text(",".join(CSV_COLUMNS) + "\n0,drt,3,1,1\n")
    with pytest.raises(ParseError) as ei:
        read_records(p)
    assert ei.value.lineno == 2
    p.write_text(",".join(CSV_COLUMNS) + "\n0,drt,3,1,1,0,1,1,x,1,1\n")
    with pytest.raises(ParseError) as ei:
        read_records(p)
    assert ei.value.lineno == 2
    # only a nan iters cell marks an error row; every other count cell
    # holds an integer
    for counts in ("5.7,3,2,6,6", "5,inf,2,6,6", "5,nan,2,6,6",
                   "5,3,2,6,-inf"):
        p.write_text(",".join(CSV_COLUMNS) + "\n0,drt,3,5,3,2,6,6,0.1,0,0\n"
                     f"1,drt,3,{counts},0.1,0,0\n")
        with pytest.raises(ParseError, match="^line 3: count cell") as ei:
            read_records(p)
        assert ei.value.lineno == 3
    p.write_text(",".join(CSV_COLUMNS) + "\n0,drt,3,5.0,3,2,6,6,0.1,0,0\n")
    assert read_records(p)[0].iters == 5


def test_read_records_skips_a_blank_line(tmp_path):
    # a blank line between rows is no row, and later line numbers count it
    rows = ["0,drt,3,5,3,2,6,6,0.1,0,0", "1,drt,3,4,4,0,5,5,0.2,0,0.5"]
    p = tmp_path / "blank.csv"
    p.write_text(",".join(CSV_COLUMNS) + f"\n{rows[0]}\n\n{rows[1]}\n")
    assert [(r.instance, r.iters, r.abs_err) for r in read_records(p)] == [
        (0, 5, 0.0), (1, 4, 0.5)]
    p.write_text(",".join(CSV_COLUMNS) + f"\n{rows[0]}\n\n0,drt,3,1\n")
    with pytest.raises(ParseError) as ei:
        read_records(p)
    assert ei.value.lineno == 4


def test_summary_csv(tmp_path):
    spec = BenchSpec(n=2, instances=2, seed=15)
    records = run_batch(spec)
    stats = summarize(records)
    out = tmp_path / "runs.csv"
    sp = summary_csv_path(out)
    assert sp.endswith("runs.summary.csv")
    write_summary_csv(stats, sp)
    rows = [l.split(",") for l in Path(sp).read_text().splitlines()]
    assert rows[0] == ["column", "min", "max", "mean"]
    got = {r[0]: tuple(float(c) for c in r[1:]) for r in rows[1:]}
    for col in CSV_COLUMNS[3:]:
        want = stats[col]
        if all(np.isfinite(want)):
            assert got[col] == want


def test_batch_baseline_algos():
    for algo in ("tos", "rfdrs"):
        spec = BenchSpec(n=3, instances=2, algo=algo, seed=4)
        records = run_batch(spec)
        assert all(r.algo == algo for r in records)
        assert all(r.error is None for r in records)
        assert all(r.iters >= 1 for r in records)
