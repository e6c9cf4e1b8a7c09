"""Instance generation, oracles, and operator bundles."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import drsplit.qp as qp_module

from drsplit.baselines import run_baseline
from drsplit.bench import BenchSpec, initial_point, run_single
from drsplit.drs import DrsState
from drsplit.drt import delta_stop, drt_solve
from drsplit.errors import OracleFailure
from drsplit.operators import BoxNormalCone, CocoerciveMap, NullspaceNormalCone
from drsplit.qp import (
    QpInstance,
    _multiplier_interval,
    drt_problem,
    estimate_beta_V,
    estimate_eta,
    faces_instance,
    generate_instance,
    kkt_check,
    nearest_zero,
    objective,
    qp_operators,
    reference_solution,
    tau0_default,
)
from drsplit.tseng import gamma_max
from oracles import (BoxAffineSum, box_qp_solve, drs_reference_zero,
                     kkt_enumerate)


def _manual_instance(Q, e, K, lo=None, hi=None):
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    return QpInstance(Q=Q, e=e, K=K,
                      lo=np.zeros(n) if lo is None else lo,
                      hi=10.0 * np.ones(n) if hi is None else hi,
                      definite=bool(np.all(np.linalg.eigvalsh(Q) > 1e-10)),
                      seed=-1)


def _sweep_instance(seed, bounds=((0.0, 1.0, 5.0),) * 2):
    # n in 2..6, rank-deficient Q, e ~ U(-5, 5), box [-a, b] with a and b
    # drawn from the given sets, so 0 is feasible; with a = b = 0 allowed,
    # about a third of the instances have a fixed coordinate
    rng = np.random.default_rng([11, seed])
    n = int(rng.integers(2, 7))
    base = generate_instance(n, False, seed)
    a = rng.choice(bounds[0], size=n)
    b = rng.choice(bounds[1], size=n)
    return QpInstance(Q=base.Q, e=rng.uniform(-5.0, 5.0, n), K=base.K,
                      lo=-a, hi=b, definite=False, seed=seed)


# ---------------------------------------------------------------- generation

def test_generate_deterministic():
    a = generate_instance(12, True, 5)
    b = generate_instance(12, True, 5)
    assert_array_equal(a.Q, b.Q)
    assert_array_equal(a.K, b.K)
    assert_array_equal(a.e, b.e)
    c = generate_instance(12, True, 6)
    assert not np.array_equal(a.Q, c.Q)


def test_generate_definite_spectrum():
    for seed in range(5):
        inst = generate_instance(9, True, seed)
        assert np.linalg.eigvalsh(inst.Q).min() >= 1.0 - 1e-8
        assert inst.definite


def test_generate_semidefinite_rank():
    for seed in range(5):
        n = 9
        inst = generate_instance(n, False, seed)
        ev = np.linalg.eigvalsh(inst.Q)
        assert ev.min() >= -1e-10
        rank = int(np.sum(ev > 1e-10 * max(1.0, ev.max())))
        assert rank <= (n + 1) // 2
        assert not inst.definite


def test_generate_fixed_pieces():
    inst = generate_instance(7, True, 3)
    assert_array_equal(inst.e, np.ones(7))
    assert_array_equal(inst.lo, np.zeros(7))
    assert_array_equal(inst.hi, 10.0 * np.ones(7))
    assert np.all(np.abs(inst.K) == 1.0)
    assert inst.n == 7
    assert inst.seed == 3


def test_faces_instance_equals_the_benchmark_copy(monkeypatch):
    # perfbench/drsbench/workloads.py keeps its own faces_instance, built
    # on generate_instance, until the benchmark calls this one: both must
    # give the same bits, and this one must decompose Q once
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    from drsbench.workloads import faces_instance as bench_faces_instance

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(None)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for n in (1, 7, 100):
        for seed in (0, 1, 12345):
            want = bench_faces_instance(n, seed)
            calls.clear()
            got = faces_instance(n, False, seed)
            assert len(calls) == 1
            for name in ("Q", "e", "K", "lo", "hi"):
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes()
            assert (got.definite, got.seed) == (want.definite, want.seed)
            # a definite instance: generate_instance's definite Q and K,
            # the same e and box
            definite = faces_instance(n, True, seed)
            paper = generate_instance(n, True, seed)
            for name, ref in (("Q", paper), ("K", paper), ("e", got),
                              ("lo", got), ("hi", got)):
                assert_array_equal(getattr(definite, name),
                                   getattr(ref, name))
            assert definite.definite


@pytest.mark.parametrize("name", ["e", "K", "lo", "hi"])
def test_instance_rejects_a_vector_of_the_wrong_length(name):
    ok = generate_instance(3, True, 0)
    fields = dict(Q=ok.Q, e=ok.e, K=ok.K, lo=ok.lo, hi=ok.hi)
    fields[name] = fields[name][:2]
    with pytest.raises(ValueError, match=f"^{name} must have length 3$"):
        QpInstance(**fields, definite=True, seed=0)


@pytest.mark.parametrize("family", [generate_instance, faces_instance])
def test_families_reject_an_empty_instance(family):
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        family(0, True, 0)


def test_instance_validation():
    ok = generate_instance(3, True, 0)
    with pytest.raises(ValueError):
        QpInstance(Q=np.ones((2, 3)), e=np.ones(2), K=np.ones(2),
                   lo=np.zeros(2), hi=np.ones(2), definite=True, seed=0)
    # a Q that is not a matrix is a ValueError, not an IndexError from
    # its shape
    for Q in (np.float64(2.0), np.ones(2), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="^Q must be a square matrix$"):
            QpInstance(Q=Q, e=np.ones(2), K=np.ones(2), lo=np.zeros(2),
                       hi=np.ones(2), definite=True, seed=0)
    # lists and integer arrays are read as float arrays
    listed = QpInstance(Q=ok.Q.tolist(), e=[1, 1, 1], K=ok.K.astype(int),
                        lo=[0, 0, 0], hi=ok.hi.tolist(), definite=True,
                        seed=0)
    for name in ("Q", "e", "K", "lo", "hi"):
        got = getattr(listed, name)
        assert got.dtype == np.float64
        assert_array_equal(got, getattr(ok, name))
    assert listed.eta == ok.eta
    with pytest.raises(ValueError):
        QpInstance(Q=ok.Q, e=["a", "b", "c"], K=ok.K, lo=ok.lo, hi=ok.hi,
                   definite=True, seed=0)
    asym = ok.Q.copy()
    asym[0, 1] += 1.0
    with pytest.raises(ValueError):
        QpInstance(Q=asym, e=ok.e, K=ok.K, lo=ok.lo, hi=ok.hi,
                   definite=True, seed=0)
    with pytest.raises(ValueError):
        QpInstance(Q=ok.Q, e=ok.e, K=np.array([1.0, 2.0, -1.0]),
                   lo=ok.lo, hi=ok.hi, definite=True, seed=0)
    with pytest.raises(ValueError):
        QpInstance(Q=-ok.Q, e=ok.e, K=ok.K, lo=ok.lo, hi=ok.hi,
                   definite=False, seed=0)
    for bad in (np.nan, np.inf):
        hi = ok.hi.copy()
        hi[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            QpInstance(Q=ok.Q, e=ok.e, K=ok.K, lo=ok.lo, hi=hi,
                       definite=True, seed=0)
        # F2 = Q z + e would be non-finite everywhere
        e = ok.e.copy()
        e[0] = bad
        with pytest.raises(ValueError, match="e contains non-finite"):
            QpInstance(Q=ok.Q, e=e, K=ok.K, lo=ok.lo, hi=ok.hi,
                       definite=True, seed=0)
    # an empty box has no solution: building the instance fails, so no
    # solver ever runs on it
    reached = []
    with pytest.raises(ValueError, match="lo <= hi"):
        empty = QpInstance(Q=ok.Q, e=ok.e, K=ok.K, lo=np.ones(3),
                           hi=np.zeros(3), definite=True, seed=0)
        reached.append(run_baseline(empty, "tos", tol=1e-8))
        reached.append(run_baseline(empty, "rfdrs", tol=1e-8))
    assert reached == []
    # so does a box that misses Kz = 0: K.z >= 4 on [1, 2]^4
    with pytest.raises(ValueError, match="satisfies Kz = 0"):
        QpInstance(Q=np.eye(4), e=np.ones(4), K=np.ones(4), lo=np.ones(4),
                   hi=np.full(4, 2.0), definite=True, seed=0)
    # a box that meets Kz = 0 in one point, in many, or in one up to
    # round-off (in the last box |K.(lo + hi)| exceeds sum(hi - lo) by
    # 4.4e-16 in floating point), builds
    for lo, hi, K in ((np.zeros(4), np.ones(4), np.ones(4)),
                      (np.ones(4), np.full(4, 2.0),
                       np.array([1.0, -1.0, 1.0, -1.0])),
                      (np.array([0.14, 0.72, 0.0, 0.0]),
                       np.array([1.0, 1.0, 0.86, 0.0]),
                       np.array([1.0, 1.0, -1.0, 1.0]))):
        QpInstance(Q=np.eye(4), e=np.ones(4), K=K, lo=lo, hi=hi,
                   definite=True, seed=0)


def test_symmetry_check_has_no_relative_slack():
    # np.allclose's default rtol=1e-5 let |Q01 - Q10| = 1.5e-6 through;
    # the check is absolute, 1e-12 times the largest entry
    ok = generate_instance(3, True, 0)
    asym = ok.Q.copy()
    asym[0, 1] += 1.5e-6
    with pytest.raises(ValueError, match=r"symmetric to 1e-12\*max\|Q\|"):
        QpInstance(Q=asym, e=ok.e, K=ok.K, lo=ok.lo, hi=ok.hi,
                   definite=True, seed=0)
    # generated instances are exactly symmetric, so building them passes
    for n, definite, seed in ((1, True, 0), (7, True, 3), (100, False, 5)):
        inst = generate_instance(n, definite, seed)
        assert_array_equal(inst.Q, inst.Q.T)


def test_tos_reference_turns_a_non_finite_step_into_an_oracle_failure():
    inst = generate_instance(10, True, 3)
    nan_f2 = CocoerciveMap(eval=lambda z: np.full_like(z, np.nan),
                           eta=inst.eta)
    object.__setattr__(inst, "F2", nan_f2)
    with pytest.raises(OracleFailure, match="non-finite"):
        reference_solution(inst)


def _failed_polish(monkeypatch):
    # the polish's pattern solve, shifted off its answer: no polished point
    # passes kkt_check, so the reference runs its 1e-12 tail
    real = qp_module._solve_pattern
    monkeypatch.setattr(qp_module, "_solve_pattern",
                        lambda inst, at_lo, at_hi:
                        (real(inst, at_lo, at_hi)[0] + 1e-3, np.nan))


def test_tos_reference_turns_a_budget_error_into_an_oracle_failure(
        monkeypatch):
    # the shared loop, capped at one step, raises IterationBudgetExceeded:
    # in the run to 1e-4, and in the 1e-12 tail after a failed polish
    real = qp_module._fixed_point

    def one_step(step, z, inst, gamma, tol, max_iter, algo):
        return real(step, z, inst, gamma, tol, 1, algo)

    def one_tail_step(step, z, inst, gamma, tol, max_iter, algo):
        return real(step, z, inst, gamma, tol,
                    1 if tol == 1e-12 else max_iter, algo)

    _failed_polish(monkeypatch)
    for loop, tol, inst in (
            (one_step, "0.0001", generate_instance(10, True, 3)),
            (one_tail_step, "1e-12", faces_instance(10, True, 3))):
        monkeypatch.setattr(qp_module, "_fixed_point", loop)
        with pytest.raises(OracleFailure, match="^reference fixed-point "
                           f"iteration: tos did not reach tol {tol} in 1 "
                           "iterations$"):
            reference_solution(inst)


def test_a_failed_polish_returns_the_1e12_fixed_point_bitwise(monkeypatch):
    # the fallback is the TOS run from 0 to 1e-12 and its box point, bit
    # for bit; the polish it replaces lies within 1e-10 of that point
    for definite in (True, False):
        inst = faces_instance(100, definite, 3)
        gamma = 1.99 * inst.eta
        z, _, _ = qp_module._fixed_point(qp_module.tos_iterate,
                                         np.zeros(100), inst, gamma, 1e-12,
                                         10 ** 6, "tos")
        tail = inst.C.resolvent(gamma, z)
        polished = reference_solution(inst)
        assert kkt_check(inst, polished, 1e-10)
        assert np.max(np.abs(polished - tail)) <= 1e-10
        with monkeypatch.context() as m:
            _failed_polish(m)
            assert_array_equal(reference_solution(inst), tail)


def test_reference_solution_passes_kkt_at_1e10_without_the_tail(monkeypatch):
    # both families and Q kinds, a few seeds at n = 10 and 100: the TOS
    # box point or its polish passes at 1e-10, and no run needs the tail
    tols = []
    real = qp_module._fixed_point

    def logged(step, z, inst, gamma, tol, max_iter, algo):
        tols.append(tol)
        return real(step, z, inst, gamma, tol, max_iter, algo)

    monkeypatch.setattr(qp_module, "_fixed_point", logged)
    for family in (generate_instance, faces_instance):
        for definite in (True, False):
            for n in (10, 100):
                for seed in range(3):
                    inst = family(n, definite, seed)
                    assert kkt_check(inst, reference_solution(inst), 1e-10)
    assert tols == [1e-4] * 24


@pytest.mark.parametrize("n, message", [
    (7, "^reference iterate failed the KKT check$")])
def test_a_failed_kkt_check_is_an_oracle_failure_and_a_nan_abs_err(
        n, message, monkeypatch):
    # a KKT check that passes no point leaves the reference without a
    # verified optimizer, and run_single keeps the solve's record with
    # abs_err nan
    monkeypatch.setattr(qp_module, "kkt_check",
                        lambda inst, z, tol=1e-8: False)
    with pytest.raises(OracleFailure, match=message):
        reference_solution(generate_instance(n, True, 3))
    rec = run_single(BenchSpec(n=n, instances=1, seed=3), 0).record
    assert rec.error is None and rec.iters > 0
    assert np.isnan(rec.abs_err)


# ------------------------------------------------------------------ spectral

def test_estimate_eta_diagonal():
    assert estimate_eta(np.diag([4.0, 1.0])) == pytest.approx(0.25, rel=1e-9)


def test_estimate_eta_zero_matrix():
    assert estimate_eta(np.zeros((2, 2))) == np.inf


def test_estimate_eta_matches_eigenvalue():
    for seed in range(8):
        inst = generate_instance(11, True, seed + 60)
        lam = np.linalg.eigvalsh(inst.Q).max()
        assert estimate_eta(inst.Q) == pytest.approx(1.0 / lam, rel=1e-8)


def test_estimate_beta_V_hand_value():
    # P Q P for Q = diag(4, 1), K = (1, 1) has top eigenvalue 2.5
    assert estimate_beta_V(np.diag([4.0, 1.0]),
                           np.array([1.0, 1.0])) == pytest.approx(0.4,
                                                                  rel=1e-9)


def test_estimate_beta_V_matches_dense():
    for seed in range(5):
        inst = generate_instance(10, True, seed + 80)
        n = inst.n
        P = np.eye(n) - np.outer(inst.K, inst.K) / n
        lam = np.linalg.eigvalsh(P @ inst.Q @ P).max()
        assert estimate_beta_V(inst.Q, inst.K) == pytest.approx(1.0 / lam,
                                                                rel=1e-7)


def test_instance_eta_is_exact_on_a_hard_spectrum():
    # a clustered top of the spectrum, where a power iteration at 1e-12
    # stalls at its step cap and overestimates eta by 7.7e-8
    inst = generate_instance(500, True, 263)
    assert qp_operators(inst).eta * np.linalg.eigvalsh(inst.Q).max() == \
        pytest.approx(1.0, rel=1e-12)


def test_instance_eta_is_derived_not_passed():
    inst = generate_instance(6, False, 4)
    assert inst.eta == estimate_eta(inst.Q)
    with pytest.raises(TypeError):
        QpInstance(Q=inst.Q, e=inst.e, K=inst.K, lo=inst.lo, hi=inst.hi,
                   definite=False, seed=4, eta=1.0)
    flat = _manual_instance(np.zeros((2, 2)), [1.0, 1.0], [1.0, -1.0])
    assert flat.eta == np.inf


def test_psd_check_runs_above_n_200():
    n = 201
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (U * np.linspace(-1e-6, 2.0, n)) @ U.T
    Q = (Q + Q.T) / 2.0
    with pytest.raises(ValueError, match="eigenvalue"):
        QpInstance(Q=Q, e=np.ones(n), K=np.ones(n), lo=np.zeros(n),
                   hi=10.0 * np.ones(n), definite=False, seed=-1)


# ----------------------------------------------------------------- operators

def test_qp_operators_bundle():
    # the instance is its operator set: qp_operators hands it back, and
    # 1/||Q|| is stored once, on the forward map
    inst = generate_instance(6, True, 14)
    assert qp_operators(inst) is inst
    z = np.linspace(-3.0, 3.0, 6)
    assert_allclose(inst.F2.eval(z), inst.Q @ z + inst.e, atol=1e-14)
    assert inst.F1 is None
    assert inst.eta == inst.F2.eta
    assert "eta" not in {f.name for f in dataclasses.fields(QpInstance)}
    assert inst.eta * np.linalg.eigvalsh(inst.Q).max() == pytest.approx(
        1.0, rel=1e-8)
    y = inst.A.resolvent(1.0, z)
    assert abs(inst.K @ y) < 1e-12
    x = inst.C.resolvent(1.0, z)
    assert_array_equal(x, np.clip(z, 0.0, 10.0))


def test_instance_builds_its_cones_once(monkeypatch):
    # qp_operators hands out the instance itself, and drt_problem, the
    # oracle and both baselines step with its operators instead of building
    # their own
    built = []
    for cone in (BoxNormalCone, NullspaceNormalCone):
        init = cone.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cone, "__init__", counted)
    spec = BenchSpec(n=20, instances=1, seed=3)
    inst = generate_instance(spec.n, spec.definite, spec.seed)
    assert sorted(built) == ["BoxNormalCone", "NullspaceNormalCone"]
    assert qp_operators(inst) is inst
    p = drt_problem(inst, initial_point(spec.n, spec.seed), tol=spec.tol)
    assert p.A is inst.A and p.C is inst.C and p.F2 is inst.F2
    reference_solution(inst)
    for algo in ("tos", "rfdrs"):
        run_baseline(inst, algo, tol=1e-8)
    assert len(built) == 2
    # run_single builds its own instance: one set for it, none in the solve
    assert run_single(spec, 0).record.iters >= 1
    assert len(built) == 4


def test_qp_operators_rejects_zero_curvature():
    inst = _manual_instance(np.zeros((2, 2)), [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        qp_operators(inst)


@pytest.mark.parametrize("sigma", [0.9, 0.99])
@pytest.mark.parametrize("family", [generate_instance, faces_instance])
def test_drt_problem_recipe(family, sigma):
    # gamma_max at L = 0 is 2 eta sigma^2 to the bit, the other settings
    # are the arguments, and the operators are the instance's own
    inst, z0 = family(30, False, 4), initial_point(30, 4)
    p = drt_problem(inst, z0, sigma=sigma, theta=0.3, tol=1e-7)
    cfg = p.cfg
    assert cfg.gamma == 2.0 * inst.eta * sigma ** 2
    assert cfg.gamma == gamma_max(inst.eta, 0.0, sigma)
    assert type(cfg.gamma) is float
    assert (cfg.tau0, cfg.sigma, cfg.theta, cfg.rho_tol, cfg.eps_tol) == (
        tau0_default(inst, z0), sigma, 0.3, 1e-7, 1e-7)
    for name in ("A", "C", "F1", "F2"):
        assert getattr(p, name) is getattr(inst, name)


def test_drt_problem_defaults_sigma_and_theta():
    # the one owner of the values every benchmark run uses
    inst, z0 = generate_instance(8, True, 1), initial_point(8, 1)
    assert drt_problem(inst, z0, tol=1e-6).cfg == drt_problem(
        inst, z0, sigma=0.99, theta=0.01, tol=1e-6).cfg


@pytest.mark.parametrize("z0, message", [
    (np.zeros(7), r"^z0 must have length 6$"),
    (0.0, r"^z0 must be a vector, got shape \(\)$"),
    (np.full(6, np.nan), "^z0 contains non-finite entries$"),
    (np.full(6, 1e110), "^z0 is too large: "),
    (np.full(6, 1e160), "^z0 is too large: "),
], ids=["length-7", "scalar", "nan", "cube-overflows",
        "square-overflows"])
def test_drt_problem_names_a_bad_start(z0, message):
    # each once failed inside tau0_default or DrsConfig, on a broadcast,
    # a matmul, "tau0 must be positive and finite", an OverflowError or an
    # overflow warning
    with pytest.raises(ValueError, match=message):
        drt_problem(generate_instance(6, True, 0), z0, tol=1e-6)


# each entry point that takes a caller's point, with the argument its
# messages name; a state has no dimension of its own, so DrsState meets
# no short point (tseng_solve checks it against the problem's)
POINT_ENTRIES = {
    "drt_problem": ("z0", lambda inst, z: drt_problem(inst, z, tol=1e-6)),
    "tau0_default": ("z0", tau0_default),
    "objective": ("z", objective),
    "kkt_check": ("z", kkt_check),
    "DrsState": ("z0", lambda inst, z: DrsState(z, 1.0)),
    "DrsState.initial": ("z0", lambda inst, z: DrsState.initial(
        z, drt_problem(inst, np.zeros(inst.n), tol=1e-6).cfg)),
    "run_baseline": ("z0", lambda inst, z: run_baseline(inst, "tos", 1e-6,
                                                         z0=z)),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in POINT_ENTRIES
    for case in ("column", "short", "nan")
    if not (entry.startswith("DrsState") and case == "short")])
def test_every_entry_point_names_a_bad_point(entry, case):
    # unchecked, a column broadcasts or raises TypeError, a short point
    # meets numpy's broadcast error, and run_baseline would report each as
    # a failure of its first iteration, a solver failure to run_batch
    inst = generate_instance(5, True, 0)
    arg, call = POINT_ENTRIES[entry]
    z, message = {
        "column": (np.zeros((5, 1)),
                   rf"^{arg} must be a vector, got shape \(5, 1\)$"),
        "short": (np.zeros(4), f"^{arg} must have length 5$"),
        "nan": (np.full(5, np.nan), f"^{arg} contains non-finite entries$"),
    }[case]
    if entry == "kkt_check" and case == "nan":
        assert kkt_check(inst, z) is False
        return
    with pytest.raises(ValueError, match=message):
        call(inst, z)


def test_cocoercivity_sampled():
    # defining inequality of the eta estimate, on random pairs
    inst = generate_instance(7, True, 25)
    ops = qp_operators(inst)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z1 = rng.uniform(-20.0, 20.0, 7)
        z2 = rng.uniform(-20.0, 20.0, 7)
        d = ops.F2.eval(z1) - ops.F2.eval(z2)
        lhs = d @ (z1 - z2)
        assert lhs >= ops.eta * (d @ d) - 1e-8 * (1 + abs(lhs))


def test_objective_value():
    inst = _manual_instance(np.diag([2.0, 4.0]), [1.0, -1.0], [1.0, 1.0])
    z = np.array([1.0, 2.0])
    assert objective(inst, z) == pytest.approx(1.0 + 8.0 + 1.0 - 2.0)


# ------------------------------------------------------------------- oracles

def test_reference_solution_hand_examples():
    # all-ones e pushes everything to the lower corner
    inst = _manual_instance(np.eye(2), [1.0, 1.0], [1.0, -1.0])
    assert_allclose(reference_solution(inst), [0.0, 0.0], atol=1e-9)
    inst = _manual_instance([[2.0]], [1.0], [1.0])
    assert_allclose(reference_solution(inst), [0.0], atol=1e-9)
    inst = _manual_instance(np.eye(2), [1.0, 1.0], [1.0, 1.0])
    assert_allclose(reference_solution(inst), [0.0, 0.0], atol=1e-9)


def test_reference_solution_interior_and_face():
    # e = (-4, -4) on K = (1, -1): minimize t^2 - 8t along z = (t, t)
    inst = _manual_instance(np.eye(2), [-4.0, -4.0], [1.0, -1.0])
    assert_allclose(reference_solution(inst), [4.0, 4.0], atol=1e-9)
    # steeper drift hits the upper face
    inst = _manual_instance(np.eye(2), [-20.0, -20.0], [1.0, -1.0])
    assert_allclose(reference_solution(inst), [10.0, 10.0], atol=1e-9)


def test_kkt_check_accepts_and_rejects():
    inst = _manual_instance(np.eye(2), [-4.0, -4.0], [1.0, -1.0])
    z = np.array([4.0, 4.0])
    assert kkt_check(inst, z)
    assert not kkt_check(inst, np.array([5.0, 5.0]))  # feasible, not optimal
    assert not kkt_check(inst, np.array([4.0, 3.0]))  # leaves the nullspace
    assert not kkt_check(inst, np.array([-1.0, -1.0]))  # outside the box
    # a tol outside (0, inf) raises: inf certified (5, 5), NaN rejected z
    for tol in (np.inf, np.nan, -1.0, 0.0):
        for point in (z, np.array([5.0, 5.0])):
            with pytest.raises(ValueError, match="^tol must be positive and"):
                kkt_check(inst, point, tol)
    # NaN slips through every comparison, so a non-finite point is rejected
    # before the tests: one NaN entry or all, at the optimum or not
    for case, good in ((inst, z), (generate_instance(5, True, 0),
                                   np.zeros(5))):
        for bad in (np.nan, np.inf):
            one = good.copy()
            one[1] = bad
            assert not kkt_check(case, one)
            assert not kkt_check(case, np.full(good.size, bad))


def test_fixed_coordinate_puts_no_constraint_on_the_multiplier():
    # z_1 is fixed at 0, so N_X(0) is all of R in that coordinate and the
    # origin, the only feasible point, is optimal whatever lam*K_1 + w_1 is
    inst = _manual_instance(np.eye(2), [-5.0, -3.0], [1.0, 1.0],
                            lo=[0.0, -5.0], hi=[0.0, 5.0])
    assert kkt_check(inst, np.zeros(2))
    assert_allclose(reference_solution(inst), [0.0, 0.0], atol=1e-12)
    assert not kkt_check(inst, np.array([0.0, 1e-3]))   # leaves Kz = 0


def _kkt_check_loop(inst, z, tol):
    # the per-coordinate loop kkt_check replaced, kept as the reference for
    # boxes without a fixed coordinate (there it took the lower bound only)
    z = np.asarray(z, dtype=float)
    if np.any(z < inst.lo - tol) or np.any(z > inst.hi + tol):
        return False
    if abs(float(inst.K @ z)) > tol * (1.0 + float(np.linalg.norm(z))):
        return False
    lam_lo, lam_hi = _multiplier_loop(inst, z, tol)
    return lam_lo <= lam_hi


def _multiplier_loop(inst, z, tol):
    # the multiplier interval of _kkt_check_loop, coordinate by coordinate
    w = inst.Q @ z + inst.e
    lam_lo, lam_hi = -np.inf, np.inf
    for i in range(z.size):
        Ki = inst.K[i]
        if z[i] <= inst.lo[i] + tol:
            b = -w[i] - tol
            if Ki > 0:
                lam_lo = max(lam_lo, b)
            else:
                lam_hi = min(lam_hi, -b)
        elif z[i] >= inst.hi[i] - tol:
            b = -w[i] + tol
            if Ki > 0:
                lam_hi = min(lam_hi, b)
            else:
                lam_lo = max(lam_lo, -b)
        else:
            c = -w[i]
            if Ki > 0:
                lam_lo = max(lam_lo, c - tol)
                lam_hi = min(lam_hi, c + tol)
            else:
                lam_lo = max(lam_lo, -c - tol)
                lam_hi = min(lam_hi, -c + tol)
    return float(lam_lo), float(lam_hi)


def test_kkt_check_verdicts_equal_the_coordinate_loop():
    # no fixed coordinate (a, b >= 1 never both 0 here): points around the
    # optimum, moved along null(K) by a few tol and with active coordinates
    # set within a few tol of their bound, on both sides of every threshold
    rng = np.random.default_rng(5)
    verdicts = []
    for seed in range(40):
        inst = _sweep_instance(seed, bounds=((0.0, 1.0, 5.0), (1.0, 5.0)))
        x = reference_solution(inst)
        active = np.flatnonzero((x <= inst.lo + 1e-9) | (x >= inst.hi - 1e-9))
        for tol in (1e-8, 1e-5):
            for _ in range(40):
                d = rng.standard_normal(inst.n)
                d -= inst.K * (inst.K @ d) / inst.n
                z = x + rng.choice([0.0, 0.5, 1.0, 3.0]) * tol * d
                for i in active[rng.random(active.size) < 0.5]:
                    bound = inst.lo[i] if x[i] <= inst.lo[i] + 1e-9 \
                        else inst.hi[i]
                    z[i] = bound + rng.choice(
                        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * tol
                want = bool(_kkt_check_loop(inst, z, tol))
                assert kkt_check(inst, z, tol) == want
                # the interval kkt_check tests, bound for bound
                assert _multiplier_interval(inst, z, tol) == \
                    _multiplier_loop(inst, z, tol)
                verdicts.append(want)
    assert 0.2 < np.mean(verdicts) < 0.8


def test_oracle_and_drt_agree_on_boxes_with_fixed_coordinates():
    # the seeded sweep that found fixed coordinates rejected as non-optimal:
    # at the old check the oracle failed 22 of these 100 instances
    n_fixed = 0
    for seed in range(100):
        inst = _sweep_instance(seed)
        n_fixed += bool(np.any(inst.lo == inst.hi))
        x_ref = reference_solution(inst)
        z0 = initial_point(inst.n, seed)
        p = drt_problem(inst, z0, tol=1e-8)
        _, quad = drt_solve(p, delta_stop(1e-8), DrsState.initial(z0, p.cfg))
        assert kkt_check(inst, quad.x, 1e-5)
        assert objective(inst, quad.x) == pytest.approx(
            objective(inst, x_ref), abs=1e-5)
    assert 25 <= n_fixed <= 50


def test_reference_solution_matches_the_enumeration():
    # seeded n = 1-6 instances of both families and Q kinds, and boxes with
    # fixed coordinates: by distance where Q is definite (one optimum), by
    # objective where the optimum need not be unique; every reference
    # passes kkt_check at 1e-10
    cases = [family(n, definite, seed)
             for family in (generate_instance, faces_instance)
             for definite in (True, False)
             for n in range(1, 7) for seed in range(3)]
    cases += [_sweep_instance(seed) for seed in range(24)]
    worst_dist = worst_obj = 0.0
    for inst in cases:
        x = reference_solution(inst)
        assert kkt_check(inst, x, 1e-10)
        x_enum = kkt_enumerate(inst)
        if inst.definite:
            worst_dist = max(worst_dist, float(np.linalg.norm(x - x_enum)))
        f = objective(inst, x_enum)
        gap = abs(objective(inst, x) - f)
        assert gap <= 1e-12 * (1.0 + abs(f))
        worst_obj = max(worst_obj, gap)
    print(f"reference against enumeration: distance {worst_dist:.3g}, "
          f"objective gap {worst_obj:.3g}")
    assert worst_dist <= 1e-12


def test_enumeration_agrees_with_iterative():
    # the pattern enumeration of tests/oracles against the TOS-based
    # reference on definite instances, where the optimum is unique
    for n in (2, 3, 4, 5, 6):
        for seed in range(4):
            inst = generate_instance(n, True, 300 + seed)
            z_iter = reference_solution(inst)
            assert kkt_check(inst, z_iter, 1e-10)
            assert np.linalg.norm(z_iter - kkt_enumerate(inst)) <= 1e-12


def test_reference_solution_large_uses_iterative():
    # above the enumeration's reach the reference is still verified
    inst = generate_instance(12, True, 77)
    z = reference_solution(inst)
    assert kkt_check(inst, z, 1e-10)
    assert abs(inst.K @ z) < 1e-8


# --------------------------------------------------------------- box solvers

def test_box_qp_solve_identity_hessian():
    # H = I: minimizer of 0.5||x||^2 - c.x over the box is clip(c)
    c = np.array([-3.0, 4.0, 12.0])
    x = box_qp_solve(np.eye(3), c, np.zeros(3), 10.0 * np.ones(3))
    assert_allclose(x, [0.0, 4.0, 10.0], atol=1e-10)


def test_box_qp_solve_budget():
    H = np.eye(2)
    with pytest.raises(OracleFailure):
        box_qp_solve(H, np.array([5.0, 5.0]), np.zeros(2), 10.0 * np.ones(2),
                     max_iter=1)


def test_box_solution_stationarity():
    for seed in range(6):
        inst = generate_instance(9, True, seed + 120)
        x = box_qp_solve(inst.Q, -inst.e, inst.lo, inst.hi)
        g = inst.Q @ x + inst.e
        # projected-gradient fixed point of the unconstrained-box problem
        assert np.max(np.abs(x - np.clip(x - g, inst.lo, inst.hi))) < 1e-9
        assert np.all(x >= inst.lo - 1e-12) and np.all(x <= inst.hi + 1e-12)


def test_box_affine_sum_resolvent():
    inst = generate_instance(8, True, 33)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    rng = np.random.default_rng(1)
    for gamma in (0.2, 1.0, 3.0):
        z = rng.uniform(-10.0, 20.0, 8)
        x = B.resolvent(gamma, z)
        # optimality of the implicit box QP
        g = (np.eye(8) + gamma * inst.Q) @ x - (z - gamma * inst.e)
        assert np.max(np.abs(x - np.clip(x - g, inst.lo, inst.hi))) < 1e-9


def test_box_affine_sum_rejects_nonpositive_gamma():
    inst = generate_instance(4, True, 33)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    for gamma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            B.resolvent(gamma, np.ones(4))


def test_drs_reference_zero_is_fixed_point():
    from drsplit.operators import project_nullspace

    inst = generate_instance(6, True, 41)
    gamma = 0.5
    z0 = np.full(6, 5.0)
    z_inf, d0 = drs_reference_zero(inst, gamma, z0)
    assert d0 == pytest.approx(np.linalg.norm(z0 - z_inf), rel=1e-12)
    # one exact splitting step must not move z_inf
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    x = B.resolvent(gamma, z_inf)
    y = project_nullspace(inst.K, 2.0 * x - z_inf)
    z_next = z_inf + y - x
    assert np.linalg.norm(z_next - z_inf) < 1e-10


def test_nearest_zero_against_the_reference_zero():
    # 40 n=10 instances, both families and both kinds of Q: the segment's
    # d0 is never larger than the distance to the one zero that the
    # exact-resolvent run reaches, and where the multiplier is unique to
    # 1e-6 (the segment is nearly a point) both agree to 1e-7
    narrow = 0
    for family in (generate_instance, faces_instance):
        for definite in (True, False):
            for seed in range(10):
                inst = family(10, definite, seed)
                z0 = initial_point(10, seed)
                gamma = drt_problem(inst, z0, tol=1e-6).cfg.gamma
                x_star = reference_solution(inst)
                z, d0 = nearest_zero(inst, x_star, gamma, z0)
                z_inf, d_ref = drs_reference_zero(inst, gamma, z0)
                assert d0 <= d_ref + 1e-12
                lower, upper = _multiplier_interval(inst, x_star, 1e-8)
                if upper - lower < 1e-6:
                    narrow += 1
                    assert d_ref - d0 <= 1e-7
                    assert np.linalg.norm(z - z_inf) <= 1e-7
    assert narrow >= 19


def test_nearest_zero_on_hand_examples():
    # interior optimum (4, 4) with w = Qx + e = 0: lam = 0 is the only
    # multiplier (to 1e-8), so the zero set is the point x* itself
    inst = _manual_instance(np.eye(2), [-4.0, -4.0], [1.0, -1.0])
    z, d0 = nearest_zero(inst, [4.0, 4.0], 0.5, [7.0, 0.0])
    assert_allclose(z, [4.0, 4.0], atol=1e-8)
    assert d0 == pytest.approx(5.0, abs=1e-8)
    # the paper family's optimum 0 sits on the lower face with w = e = 1,
    # so lam*K_i >= -1 - tol (tol = 1e-8) for every i and lam spans
    # [-1 - tol, 1 + tol] when K has both signs; z = -gamma*lam*K, and the nearest point
    # clips the parabola's vertex -K.z0/(gamma*n) to that interval
    inst = _manual_instance(np.eye(3), [1.0, 1.0, 1.0], [1.0, -1.0, 1.0])
    gamma, tol = 0.5, 1e-8
    for z0, lam in (([0.1, 0.0, 0.2], -0.2), ([30.0, 0.0, 0.0], -1 - tol),
                    ([0.0, 30.0, 0.0], 1 + tol)):
        z, d0 = nearest_zero(inst, np.zeros(3), gamma, z0)
        assert_allclose(z, -gamma * lam * inst.K, rtol=1e-15)
        assert d0 == pytest.approx(np.linalg.norm(np.asarray(z0) - z),
                                   rel=1e-15)
    # the returned point is a zero: one exact splitting step keeps it, to
    # the 1e-8 that the interval is read at
    inst = generate_instance(6, True, 41)
    z, _ = nearest_zero(inst, reference_solution(inst), 0.5, np.full(6, 5.0))
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    x = B.resolvent(0.5, z)
    y = inst.A.resolvent(0.5, 2.0 * x - z)
    assert np.linalg.norm(y - x) < 1e-7


def test_nearest_zero_rejects_bad_arguments():
    inst = _manual_instance(np.eye(2), [-4.0, -4.0], [1.0, -1.0])
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            nearest_zero(inst, [4.0, 4.0], gamma, [0.0, 0.0])
    # (5, 5) is feasible but not optimal: no multiplier, no segment
    with pytest.raises(ValueError, match="no multiplier"):
        nearest_zero(inst, [5.0, 5.0], 0.5, [0.0, 0.0])
    with pytest.raises(ValueError, match="^x_star must have length 2"):
        nearest_zero(inst, [4.0], 0.5, [0.0, 0.0])
    with pytest.raises(ValueError, match="^z0 contains non-finite"):
        nearest_zero(inst, [4.0, 4.0], 0.5, [0.0, float("nan")])


def test_tau0_default_formula():
    inst = generate_instance(5, True, 52)
    z0 = np.array([3.0, -2.0, 11.0, 0.5, 7.0])
    r = z0 - np.clip(z0, inst.lo, inst.hi) + inst.Q @ z0
    assert tau0_default(inst, z0) == pytest.approx(
        np.linalg.norm(r) ** 3 + 1.0, rel=1e-12)
    # ||r||^3 overflowed at 1e110 (a bare OverflowError), ||r||^2 at 1e160
    for scale in (1e110, 1e160):
        with pytest.raises(ValueError, match="^z0 is too large: tau0 = "):
            tau0_default(inst, np.full(5, scale))
