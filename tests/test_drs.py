"""Outer relative-error splitting loop: hand runs, contracts, ergodics."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.drs import (
    EXTRAGRADIENT,
    NULL,
    DrsConfig,
    DrsState,
    Quadruple,
    check_termination,
    drs_ergodic,
    drs_iterate,
    null_step_bounds,
    outer_certificates,
)
from drsplit.errors import (
    ContractViolation,
    InvariantViolation,
    IterationBudgetExceeded,
    StateError,
)
from drsplit.hpe import verify_hpe_inequality
from drsplit.operators import NullspaceNormalCone
from drsplit.bench import initial_point
from drsplit.drt import delta_stop
from drsplit.qp import drt_problem, faces_instance, generate_instance
from drsplit.tseng import tseng_solve
from oracles import AffineMonotone, BoxAffineSum, ergodic_prefix, exact_bsolver


def _cfg(**kw):
    base = dict(gamma=1.0, sigma=0.99, theta=0.01, tau0=100.0,
                rho_tol=1e-8, eps_tol=1e-8)
    base.update(kw)
    return DrsConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(gamma=0.0)
    with pytest.raises(ValueError):
        _cfg(sigma=1.0)
    with pytest.raises(ValueError):
        _cfg(sigma=0.0)
    with pytest.raises(ValueError):
        _cfg(theta=1.0)
    with pytest.raises(ValueError):
        _cfg(tau0=0.0)
    with pytest.raises(ValueError):
        _cfg(rho_tol=0.0)
    with pytest.raises(ValueError):
        _cfg(max_iter=0)
    for field in ("gamma", "tau0", "rho_tol", "eps_tol"):
        with pytest.raises(ValueError):
            _cfg(**{field: float("nan")})
    # an infinite gamma or tau0 turns tau into NaN after enough null steps
    for field in ("gamma", "tau0"):
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                _cfg(**{field: bad})
    # with NaN the k >= max_iter budget test never fires
    for bad in (float("nan"), 2.5, float("inf")):
        with pytest.raises(ValueError, match="max_iter"):
            _cfg(max_iter=bad)
    assert _cfg(max_iter=np.int64(5)).max_iter == 5


def test_one_dimensional_exact_run():
    # A the normal cone of {0}, B the identity, gamma 1, z0 = 2: every
    # iterate halves, x = b = z/2, y = a = 0
    cfg = _cfg()
    A = NullspaceNormalCone(np.array([1.0]))
    B = AffineMonotone(np.eye(1))
    state = DrsState.initial(np.array([2.0]), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    expect = [1.0, 0.5, 0.25]
    for k, want in enumerate(expect, start=1):
        drs_iterate(state, cfg, bs, A)
        assert state.k == k
        assert state.trace[-1].step == EXTRAGRADIENT
        assert state.residual == pytest.approx(want, rel=1e-12)
        x, y, a, b, _, eps_b = state.last
        assert x[0] == pytest.approx(want, rel=1e-12)
        assert b[0] == pytest.approx(want, rel=1e-12)
        assert_allclose(y, [0.0], atol=1e-15)
        assert_allclose(a, [0.0], atol=1e-15)
        assert eps_b == 0.0
        assert state.z[0] == pytest.approx(want, rel=1e-12)
    assert state.n_extragradient == 3
    assert state.beta == 0
    assert state.tau == cfg.tau0


def test_exact_bsolver_matches_plain_recursion():
    # with an exact B-resolvent the loop reduces to classical DRS:
    # x = J_gB(z), y = P_M(2x - z), z+ = z - x + y
    inst = generate_instance(6, True, 4)
    gamma = 0.8
    cfg = _cfg(gamma=gamma)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(6, 3.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    z_ref = np.full(6, 3.0)
    for _ in range(25):
        drs_iterate(state, cfg, bs, A)
        x_ref = B.resolvent(gamma, z_ref)
        y_ref = A.resolvent(gamma, 2.0 * x_ref - z_ref)
        z_ref = z_ref - x_ref + y_ref
        assert state.trace[-1].step == EXTRAGRADIENT
        assert_allclose(state.z, z_ref, atol=1e-12)
    assert state.beta == 0


def test_null_step_freezes_z_and_shrinks_tau():
    cfg = _cfg(tau0=100.0, theta=0.1)
    A = NullspaceNormalCone(np.array([1.0, -1.0]))
    z0 = np.array([4.0, 0.0])
    state = DrsState.initial(z0, cfg)

    def sloppy(z_prev, tau):
        # feasible for the tolerance but far from the sigma test: large
        # eps_b forces a null step
        return z_prev.copy(), np.zeros(2), 40.0, 0

    drs_iterate(state, cfg, sloppy, A)
    assert state.trace[-1].step == NULL
    assert state.beta == 1
    assert_allclose(state.z, z0)
    assert state.tau == pytest.approx(cfg.theta * cfg.tau0)
    # trace records the post-update tolerance
    assert state.trace[-1].step == NULL
    assert state.trace[-1].tau == pytest.approx(state.tau)


def test_contract_violation_raises():
    cfg = _cfg(tau0=1e-6)
    A = NullspaceNormalCone(np.array([1.0]))

    def liar(z_prev, tau):
        return z_prev + 5.0, np.zeros(1), 0.0, 0  # lhs 25 >> tau

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg, liar, A)

    def negative_eps(z_prev, tau):
        return z_prev.copy(), np.zeros(1), -1.0, 0

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg,
                    negative_eps, A)
    for inner in (-1, 1.0, float("nan"), None):
        with pytest.raises(ContractViolation, match=f"inner={inner!r}, not"):
            drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg,
                        lambda z, tau: (z, np.zeros(1), 0.0, inner), A)


def test_nan_contract_data_fails_on_the_first_call():
    # NaN passes a test written as eps_b < 0 or lhs > tau, and then every
    # step classifies as null until max_iter; both tests reject it at once
    cfg = _cfg(tau0=1.0)
    A = NullspaceNormalCone(np.array([1.0, 1.0]))
    calls = []

    def nan_eps(z_prev, tau):
        calls.append(None)
        return z_prev / 2.0, z_prev / 2.0, float("nan"), 0

    def nan_point(z_prev, tau):
        calls.append(None)
        return np.array([np.nan, 0.0]), np.zeros(2), 0.0, 0

    for bsolver, match in ((nan_eps, "eps_b=nan"), (nan_point, "tolerance")):
        calls.clear()
        state = DrsState.initial(np.array([2.0, 0.0]), cfg)
        with pytest.raises(ContractViolation, match=match):
            drs_iterate(state, cfg, bsolver, A)
        assert len(calls) == 1 and state.k == 0


def test_non_finite_resolvent_of_a_fails_on_the_first_call():
    # a NaN y makes the residual NaN, which no relative-error test
    # rejects: every step would classify as null until max_iter
    class NonFiniteResolvent:
        def __init__(self, bad):
            self.bad = bad

        def resolvent(self, gamma, z):
            return np.full_like(z, self.bad)

    cfg = _cfg(max_iter=5)
    bs = exact_bsolver(AffineMonotone(np.eye(1)), cfg.gamma)
    for bad in (np.nan, np.inf):
        state = DrsState.initial(np.array([2.0]), cfg)
        with pytest.raises(ContractViolation,
                           match=r"^A's resolvent returned a non-finite"):
            drs_iterate(state, cfg, bs, NonFiniteResolvent(bad))
        assert state.k == 0 and state.trace == []


def test_bsolver_output_of_the_wrong_shape_fails_on_the_first_call():
    # x or b of another shape than z broadcasts through the contract and
    # the relative-error test, and a scalar x reaches the ergodic averages
    cfg = _cfg()
    A = NullspaceNormalCone(np.ones(3))
    z0 = np.array([2.0, -1.0, 0.5])
    short = np.array([1.0])
    cases = (
        (lambda z, tau: (short, z - short, 0.0, 0),
         r"\(1,\) and b .* \(3,\)"),
        (lambda z, tau: (1.0, z - 1.0, 0.0, 0), r"\(\) and b .* \(3,\)"),
        (lambda z, tau: (z / 2.0, z[:1] / 2.0, 0.0, 0),
         r"\(3,\) and b .* \(1,\)"),
    )
    for bsolver, shapes in cases:
        state = DrsState.initial(z0, cfg)
        with pytest.raises(ContractViolation,
                           match=r"^outer B-solve call 1: bsolver returned x "
                                 rf"of shape {shapes}, not \(3,\)$"):
            drs_iterate(state, cfg, bsolver, A)
        assert state.k == 0


def test_bsolver_return_that_is_not_four_values_is_a_contract_violation():
    # a B-solver written to the three-value protocol, and returns that do
    # not unpack at all; a ValueError raised inside the B-solver keeps its
    # type
    cfg = _cfg()
    A = NullspaceNormalCone(np.ones(2))
    z0 = np.array([2.0, -1.0])
    cases = (
        (lambda z, tau: (z / 2.0, z / 2.0, 0.0), "tuple", r"got 3"),
        (lambda z, tau: (z / 2.0, z / 2.0, 0.0, 0, 0), "tuple",
         r"expected 4"),
        (lambda z, tau: None, "NoneType", "non-iterable"),
        (lambda z, tau: 1.0, "float", "non-iterable"),
    )
    for bsolver, kind, why in cases:
        state = DrsState.initial(z0, cfg)
        with pytest.raises(ContractViolation,
                           match=r"^outer B-solve call 1: bsolver returned "
                                 rf"a {kind}, not \(x, b, eps_b, inner\): "
                                 rf".*{why}"):
            drs_iterate(state, cfg, bsolver, A)
        assert state.k == 0 and state.trace == []
        assert_array_equal(state.z, z0)

    def raises(z_prev, tau):
        raise ValueError("inner trouble")

    with pytest.raises(ValueError, match="^inner trouble$"):
        drs_iterate(DrsState.initial(z0, cfg), cfg, raises, A)


def test_iteration_budget():
    cfg = _cfg(max_iter=2)
    A = NullspaceNormalCone(np.array([1.0]))
    B = AffineMonotone(np.eye(1))
    state = DrsState.initial(np.array([2.0]), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    drs_iterate(state, cfg, bs, A)
    drs_iterate(state, cfg, bs, A)
    with pytest.raises(IterationBudgetExceeded, match="^max_iter=2 reached$"):
        drs_iterate(state, cfg, bs, A)


@pytest.mark.parametrize("error", [ContractViolation, IterationBudgetExceeded])
def test_exact_steps_take_no_inner_steps_and_errors_name_the_outer_call(error):
    # drs_iterate, not the B-solver, names the outer call that failed
    cfg, A = _cfg(), NullspaceNormalCone(np.array([1.0]))
    state = DrsState.initial(np.array([2.0]), cfg)
    for _ in range(2):
        drs_iterate(state, cfg, exact_bsolver(AffineMonotone(np.eye(1)), cfg.gamma), A)
    assert [t.inner for t in state.trace] == [0, 0]

    def fails(z_prev, tau):
        raise error("inner trouble")

    with pytest.raises(error, match="^outer B-solve call 3: inner trouble$"):
        drs_iterate(state, cfg, fails, A)


@pytest.mark.parametrize("out, what", [
    (lambda z: (z, z), r"bsolver returned a tuple, not \(x, b, eps_b, inner\)"),
    (lambda z: (z[:0], z, 0.0, 0), r"bsolver returned x of shape \(0,\)"),
    (lambda z: (z, 0 * z, -1.0, 0), r"bsolver returned eps_b=-1.0, not >= 0$"),
    (lambda z: (z, 0 * z, 0.0, 1.5), r"bsolver returned inner=1.5, not an "),
    (lambda z: (z + 100.0, 0 * z, 0.0, 0), "bsolver output violates its "
                                           r"tolerance: \d"),
], ids=["arity", "shape", "eps_b", "inner", "tolerance"])
def test_a_bad_return_names_the_outer_call_and_leaves_the_state(out, what):
    # drs_iterate's own checks on the B-solver's return carry the prefix
    # that errors raised inside the B-solver get, and take no step
    cfg, A = _cfg(), NullspaceNormalCone(np.array([1.0]))
    state = DrsState.initial(np.array([2.0]), cfg)
    for _ in range(2):
        drs_iterate(state, cfg, exact_bsolver(AffineMonotone(np.eye(1)),
                                              cfg.gamma), A)
    z, last, trace = state.z, state.last, list(state.trace)
    with pytest.raises(ContractViolation,
                       match=rf"^outer B-solve call 3: {what}"):
        drs_iterate(state, cfg, lambda z_prev, tau: out(z_prev), A)
    assert (state.k, state.beta, state.tau) == (2, 0, cfg.tau0)
    assert state.z is z and state.last is last and state.trace == trace
    assert state.n_extragradient == 2


def test_a_state_runs_its_ladder_from_its_own_tau0():
    # a state started above cfg.tau0 (paper n=20, seed 3, at 1e6 x tau0):
    # a null step takes theta times the state's own start, not cfg.tau0's
    # ladder, and every step after keeps to theta**beta * state.tau0
    inst = generate_instance(20, True, 3)
    z0 = initial_point(20, 3)
    prob = drt_problem(inst, z0, sigma=0.99, theta=0.01, tol=1e-6)
    cfg, tau0 = prob.cfg, 1e6 * prob.cfg.tau0
    state = DrsState(z0, tau0)
    bs = partial(tseng_solve, prob.tseng)
    while state.beta == 0:
        drs_iterate(state, cfg, bs, prob.A)
    assert state.trace[-1].step == NULL
    assert state.tau == cfg.theta * tau0
    for _ in range(20):
        drs_iterate(state, cfg, bs, prob.A)
        assert state.tau == cfg.theta ** state.beta * tau0
    assert state.beta >= 2 and state.tau0 == tau0
    assert DrsState.initial(z0, cfg).tau0 == cfg.tau0


def test_residual_identity_every_step():
    # gamma*||a + b|| = ||x - y|| is enforced inside drs_iterate; verify
    # it independently over a seeded run
    inst = generate_instance(8, True, 9)
    gamma = 0.5
    cfg = _cfg(gamma=gamma)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(8, -2.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    for _ in range(20):
        drs_iterate(state, cfg, bs, A)
        x, y, a, b, _, _ = state.last
        lhs = gamma * np.linalg.norm(a + b)
        assert lhs == pytest.approx(np.linalg.norm(x - y), abs=1e-11)


def test_check_termination():
    cfg = _cfg(rho_tol=0.5, eps_tol=0.1, gamma=1.0)
    x = np.array([0.3, 0.0])
    y = np.zeros(2)
    a = np.zeros(2)
    b = np.array([0.3, 0.0])
    assert check_termination(Quadruple(x, y, a, b, 0.0, 0.05), cfg)
    # eps_a + eps_b too big
    assert not check_termination(Quadruple(x, y, a, b, 0.0, 0.2), cfg)
    assert not check_termination(Quadruple(x, y, a, b, 0.06, 0.05), cfg)
    big = np.array([0.8, 0.0])
    assert not check_termination(Quadruple(big, y, a, big, 0.0, 0.0), cfg)
    # a corrupted quadruple raises rather than reading "not yet": identity
    # broken, a NaN entry, a NaN or negative enlargement
    for q in (Quadruple(x, y, a, np.array([9.0, 0.0]), 0.0, 0.0),
              Quadruple(np.array([np.nan, 0.0]), y, a, b, 0.0, 0.0),
              Quadruple(x, y, a, b, 0.0, float("nan")),
              Quadruple(x, y, a, b, float("nan"), 0.0),
              Quadruple(x, y, a, b, -0.01, 0.05)):
        with pytest.raises(ContractViolation):
            check_termination(q, cfg)


def test_ergodic_averages_and_guards():
    inst = generate_instance(5, True, 2)
    cfg = _cfg(gamma=0.6)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(5, 2.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    with pytest.raises(StateError):
        drs_ergodic(state)
    for _ in range(12):
        drs_iterate(state, cfg, bs, A)
    e = drs_ergodic(state)
    assert_allclose(e.x, np.mean(state.hist_x, axis=0), atol=1e-14)
    assert_allclose(e.b, np.mean(state.hist_b, axis=0), atol=1e-14)
    assert e.eps_a >= 0.0 and e.eps_b >= 0.0
    # prefix averages agree with a direct recomputation
    e3 = ergodic_prefix(state, 3)
    assert_allclose(e3.y, np.mean(state.hist_y[:3], axis=0), atol=1e-14)


@pytest.mark.parametrize("family", [generate_instance, faces_instance],
                         ids=["paper", "faces"])
def test_outer_certificates(family):
    # one certificate per extragradient step of a drt run, bitwise the
    # hand formula on that step's quadruple, replaying the iterates
    inst = family(10, True, 3)
    z0 = initial_point(10, 3)
    prob = drt_problem(inst, z0, sigma=0.99, theta=0.01, tol=1e-6)
    cfg, g = prob.cfg, prob.cfg.gamma
    state = DrsState.initial(z0, cfg)
    bs, stop = partial(tseng_solve, prob.tseng), delta_stop(1e-6)
    assert outer_certificates(state, cfg) == []
    hand = []
    while not stop(state):
        z = state.z
        drs_iterate(state, cfg, bs, prob.A)
        if state.trace[-1].step == EXTRAGRADIENT:
            _, y, a, b, _, eps_b = state.last
            hand.append((z, y + g * b, g * (a + b), g * eps_b, 1.0,
                         cfg.sigma))
    assert state.beta >= 1 and state.n_extragradient >= 2
    certs = outer_certificates(state, cfg)
    assert len(certs) == len(hand) == state.n_extragradient
    for cert, want in zip(certs, hand):
        for got, w in zip(cert, want):
            assert_array_equal(got, w)
    assert all(map(verify_hpe_inequality, certs))
    # the update replays each certificate: z_l = z_prev_l - v_l
    z_after = [c.z_prev for c in certs[1:]] + [state.z]
    for cert, z in zip(certs, z_after):
        assert_array_equal(z, cert.z_prev - cert.v)
    # an enlargement that doubles the right-hand side fails step 2 alone
    r = certs[1].z_tilde - certs[1].z_prev
    state.hist_eps_b[1] = float(r.dot(r)) / g
    assert ([verify_hpe_inequality(c) for c in outer_certificates(state, cfg)]
            == [j != 1 for j in range(len(certs))])


def test_null_step_bounds_values():
    r0, e0 = null_step_bounds(100.0, 0.5, 0, 0.1)
    assert r0 == pytest.approx(3.0 * 10.0)  # (1 + 1/sigma) * sqrt(tau0)
    assert e0 == pytest.approx(50.0)
    r2, e2 = null_step_bounds(100.0, 0.5, 2, 0.1)
    assert r2 == pytest.approx(3.0 * 1.0)
    assert e2 == pytest.approx(0.5)


@pytest.mark.parametrize("args, message", [
    ((1.0, 0.5, -3, 0.5), "beta_prev"),
    ((1.0, 0.5, 1.5, 0.5), "beta_prev"),
    ((1.0, 0.5, np.nan, 0.5), "beta_prev"),
    ((np.nan, 0.5, 0, 0.5), "tau0"),
    ((0.0, 0.5, 0, 0.5), "tau0"),
    ((np.inf, 0.5, 0, 0.5), "tau0"),
    ((1.0, 1.0, 0, 0.5), "sigma"),
    ((1.0, np.nan, 0, 0.5), "sigma"),
    ((1.0, 0.5, 0, 0.0), "theta"),
    ((1.0, 0.5, 0, np.nan), "theta"),
], ids=["beta-negative", "beta-fraction", "beta-nan", "tau0-nan",
        "tau0-zero", "tau0-inf", "sigma-one", "sigma-nan", "theta-zero",
        "theta-nan"])
def test_null_step_bounds_rejects_bad_arguments(args, message):
    # beta_prev = -3 once returned the bounds for tau = 8 > tau0, and a
    # NaN tau0 returned (nan, nan)
    with pytest.raises(ValueError, match=message):
        null_step_bounds(*args)


@pytest.mark.parametrize("tau0", [float("nan"), 0.0, -1.0, float("inf")])
def test_state_rejects_a_bad_tau0(tau0):
    # as DrsConfig does: a bad tau0 used to fail at the first B-solve with
    # an untyped error, or (inf) to run every step at tau = inf
    with pytest.raises(ValueError, match="^tau0 must be positive and finite"):
        DrsState(np.zeros(3), tau0)


def test_state_accessors_before_first_step():
    state = DrsState.initial(np.zeros(3), _cfg())
    assert state.last is None
    assert state.trace == []
    with pytest.raises(StateError):
        state.residual
