"""Outer relative-error splitting loop: hand runs, contracts, ergodics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.drs import (
    EXTRAGRADIENT,
    NULL,
    DrsConfig,
    DrsState,
    check_termination,
    drs_ergodic,
    drs_iterate,
    embed_hpe,
    exact_bsolver,
    null_step_bounds,
)
from drsplit.errors import (
    ContractViolation,
    InvariantViolation,
    IterationBudgetExceeded,
    StateError,
)
from drsplit.hpe import verify_hpe_inequality
from drsplit.operators import AffineMonotone, NullspaceNormalCone
from drsplit.qp import BoxAffineSum, generate_instance


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
    bs = exact_bsolver(B)
    expect = [1.0, 0.5, 0.25]
    for k, want in enumerate(expect, start=1):
        drs_iterate(state, cfg, bs, A)
        assert state.k == k
        assert state.last_step == EXTRAGRADIENT
        assert state.residual == pytest.approx(want, rel=1e-12)
        x, y, a, b, eps_b = state.last
        assert x[0] == pytest.approx(want, rel=1e-12)
        assert b[0] == pytest.approx(want, rel=1e-12)
        assert_allclose(y, [0.0], atol=1e-15)
        assert_allclose(a, [0.0], atol=1e-15)
        assert eps_b == 0.0
        assert state.z[0] == pytest.approx(want, rel=1e-12)
    assert state.n_extragradient == 3
    assert state.n_null == 0
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
    bs = exact_bsolver(B)
    z_ref = np.full(6, 3.0)
    for _ in range(25):
        drs_iterate(state, cfg, bs, A)
        x_ref = B.resolvent(gamma, z_ref)
        y_ref = A.resolvent(gamma, 2.0 * x_ref - z_ref)
        z_ref = z_ref - x_ref + y_ref
        assert state.last_step == EXTRAGRADIENT
        assert_allclose(state.z, z_ref, atol=1e-12)
    assert state.n_null == 0


def test_null_step_freezes_z_and_shrinks_tau():
    cfg = _cfg(tau0=100.0, theta=0.1)
    A = NullspaceNormalCone(np.array([1.0, -1.0]))
    z0 = np.array([4.0, 0.0])
    state = DrsState.initial(z0, cfg)

    def sloppy(z_prev, tau, gamma):
        # feasible for the tolerance but far from the sigma test: large
        # eps_b forces a null step
        return z_prev.copy(), np.zeros(2), 40.0

    drs_iterate(state, cfg, sloppy, A)
    assert state.last_step == NULL
    assert state.n_null == 1
    assert_allclose(state.z, z0)
    assert state.tau == pytest.approx(cfg.theta * cfg.tau0)
    # trace records the post-update tolerance
    assert state.trace[-1].step == NULL
    assert state.trace[-1].tau == pytest.approx(state.tau)


def test_contract_violation_raises():
    cfg = _cfg(tau0=1e-6)
    A = NullspaceNormalCone(np.array([1.0]))

    def liar(z_prev, tau, gamma):
        return z_prev + 5.0, np.zeros(1), 0.0  # lhs 25 >> tau

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg, liar, A)

    def negative_eps(z_prev, tau, gamma):
        return z_prev.copy(), np.zeros(1), -1.0

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg,
                    negative_eps, A)


def test_nan_contract_data_fails_on_the_first_call():
    # NaN passes a test written as eps_b < 0 or lhs > tau, and then every
    # step classifies as null until max_iter; both tests reject it at once
    cfg = _cfg(tau0=1.0)
    A = NullspaceNormalCone(np.array([1.0, 1.0]))
    calls = []

    def nan_eps(z_prev, tau, gamma):
        calls.append(None)
        return z_prev / 2.0, z_prev / 2.0, float("nan")

    def nan_point(z_prev, tau, gamma):
        calls.append(None)
        return np.array([np.nan, 0.0]), np.zeros(2), 0.0

    for bsolver, match in ((nan_eps, "eps_b=nan"), (nan_point, "tolerance")):
        calls.clear()
        state = DrsState.initial(np.array([2.0, 0.0]), cfg)
        with pytest.raises(ContractViolation, match=match):
            drs_iterate(state, cfg, bsolver, A)
        assert len(calls) == 1 and state.k == 0


def test_iteration_budget():
    cfg = _cfg(max_iter=2)
    A = NullspaceNormalCone(np.array([1.0]))
    B = AffineMonotone(np.eye(1))
    state = DrsState.initial(np.array([2.0]), cfg)
    bs = exact_bsolver(B)
    drs_iterate(state, cfg, bs, A)
    drs_iterate(state, cfg, bs, A)
    with pytest.raises(IterationBudgetExceeded):
        drs_iterate(state, cfg, bs, A)


def test_residual_identity_every_step():
    # gamma*||a + b|| = ||x - y|| is enforced inside drs_iterate; verify
    # it independently over a seeded run
    inst = generate_instance(8, True, 9)
    gamma = 0.5
    cfg = _cfg(gamma=gamma)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(8, -2.0), cfg)
    bs = exact_bsolver(B)
    for _ in range(20):
        drs_iterate(state, cfg, bs, A)
        x, y, a, b, _ = state.last
        lhs = gamma * np.linalg.norm(a + b)
        assert lhs == pytest.approx(np.linalg.norm(x - y), abs=1e-11)


def test_check_termination():
    cfg = _cfg(rho_tol=0.5, eps_tol=0.1, gamma=1.0)
    x = np.array([0.3, 0.0])
    y = np.zeros(2)
    a = np.zeros(2)
    b = np.array([0.3, 0.0])
    assert check_termination(x, y, a, b, 0.0, 0.05, cfg)
    assert not check_termination(x, y, a, b, 0.0, 0.2, cfg)  # eps too big
    big = np.array([0.8, 0.0])
    assert not check_termination(big, y, a, big, 0.0, 0.0, cfg)
    # corrupted quadruple: identity broken
    with pytest.raises(ContractViolation):
        check_termination(x, y, a, np.array([9.0, 0.0]), 0.0, 0.0, cfg)


def test_ergodic_averages_and_guards():
    inst = generate_instance(5, True, 2)
    cfg = _cfg(gamma=0.6)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(5, 2.0), cfg)
    bs = exact_bsolver(B)
    with pytest.raises(StateError):
        drs_ergodic(state)
    for _ in range(12):
        drs_iterate(state, cfg, bs, A)
    e = drs_ergodic(state)
    j = state.n_extragradient
    assert_allclose(e.x, np.mean(state.hist_x, axis=0), atol=1e-14)
    assert_allclose(e.b, np.mean(state.hist_b, axis=0), atol=1e-14)
    assert e.eps_a >= 0.0 and e.eps_b >= 0.0
    # prefix averages agree with a direct recomputation
    e3 = drs_ergodic(state, upto=3)
    assert_allclose(e3.y, np.mean(state.hist_y[:3], axis=0), atol=1e-14)
    with pytest.raises(ValueError):
        drs_ergodic(state, upto=j + 1)


def test_embed_hpe_certificate():
    inst = generate_instance(4, True, 6)
    cfg = _cfg(gamma=0.7)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(4, 1.5), cfg)
    bs = exact_bsolver(B)
    with pytest.raises(StateError):
        embed_hpe(state, cfg)
    drs_iterate(state, cfg, bs, A)
    cert = embed_hpe(state, cfg)
    assert cert.lam == 1.0
    x, y, a, b, eps_b = state.last
    assert_allclose(cert.z_tilde, y + cfg.gamma * b, atol=1e-14)
    assert_allclose(cert.v, cfg.gamma * (a + b), atol=1e-14)
    assert cert.eps == pytest.approx(cfg.gamma * eps_b)
    assert verify_hpe_inequality(cert)
    # the update replays the certificate: z = z_prev - v
    assert_allclose(state.z, cert.z_prev - cert.v, atol=1e-14)


def test_null_step_bounds_values():
    r0, e0 = null_step_bounds(100.0, 0.5, 0, 0.1)
    assert r0 == pytest.approx(3.0 * 10.0)  # (1 + 1/sigma) * sqrt(tau0)
    assert e0 == pytest.approx(50.0)
    r2, e2 = null_step_bounds(100.0, 0.5, 2, 0.1)
    assert r2 == pytest.approx(3.0 * 1.0)
    assert e2 == pytest.approx(0.5)


def test_state_accessors_before_first_step():
    state = DrsState.initial(np.zeros(3), _cfg())
    assert state.last is None
    assert state.last_step is None
    with pytest.raises(StateError):
        state.residual
