"""Span arithmetic and patch lifetime of the benchmark tracer."""

import sys
import types

import pytest

from drsbench import tracer as tracer_mod
from drsbench.tracer import Tracer


@pytest.fixture
def clock(monkeypatch):
    """A clock that only moves when the traced code advances it."""
    now = [0.0]
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: now[0])
    return now


def test_self_time_subtracts_direct_children_only(clock):
    tr = Tracer()

    def leaf():
        clock[0] += 4.0

    def middle():
        clock[0] += 2.0
        leaf()

    def outer():
        clock[0] += 1.0
        middle()
        middle()
        clock[0] += 8.0

    leaf, middle = tr.wrap("leaf", leaf), tr.wrap("middle", middle)
    tr.wrap("outer", outer)()
    s = tr.summary()
    assert (s["leaf"].calls, s["leaf"].total_s, s["leaf"].self_s) == (2, 8.0, 8.0)
    assert (s["middle"].calls, s["middle"].total_s,
            s["middle"].self_s) == (2, 12.0, 4.0)
    assert (s["outer"].calls, s["outer"].total_s,
            s["outer"].self_s) == (1, 21.0, 9.0)
    assert tr.durations("middle") == [6.0, 6.0]


def test_raised_call_is_timed_counted_and_reraised(clock):
    tr = Tracer()

    def boom():
        clock[0] += 3.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.raised["boom"] == 1
    assert tr.summary()["boom"].total_s == 3.0


def test_keep_stores_what_it_projects_from_return_values():
    tr = Tracer()
    f = tr.wrap("f", lambda x: (x, x * 2), keep=lambda out: out[1])
    f(1), f(2)
    assert tr.kept["f"] == [2, 4]


def test_patch_is_undone_on_error_and_refuses_double_wrap():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    original = mod.f
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer() as tr:
            tr.patch(mod, "f", "fake.f")
            assert mod.f is not original
            with pytest.raises(RuntimeError, match="already wrapped"):
                Tracer().patch(mod, "f", "fake.f")
            raise RuntimeError("inside")
    assert mod.f is original


def _snapshot():
    from drsplit import operators

    snap = {(name, key): value
            for name, m in sys.modules.items()
            if name == "drsplit" or name.startswith("drsplit.")
            for key, value in vars(m).items()}
    for cls in (operators.BoxNormalCone, operators.NullspaceNormalCone):
        snap[(cls.__name__, "resolvent")] = vars(cls)["resolvent"]
    return snap


def test_full_install_wraps_every_binding_and_restores_them():
    import numpy as np
    from drsbench.workloads import faces_instance, faces_solve, install
    from drsplit import bench, drt

    before = _snapshot()
    inst = faces_instance(8, 3)
    with Tracer() as tr:
        install(tr, full=True)
        assert hasattr(bench.drt_solve, "__wrapped__")
        assert hasattr(drt.drt_solve, "__wrapped__")
        solve = faces_solve(inst, bench.initial_point(8, 3), 0)
    assert solve.certified and np.all(np.isfinite(solve.solution))
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    s = tr.summary()
    assert s["drt.drt_solve"].calls == 1
    assert s["tseng.tseng_step"].calls == solve.record.inner
    assert s["drs.drs_iterate"].calls == solve.record.iters
    assert s["operators.box_resolvent"].calls == solve.record.inner
