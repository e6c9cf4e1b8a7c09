import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.errors import IterationBudgetExceeded
from drsplit.hpe import verify_hpe_inequality
from drsplit.operators import BoxNormalCone, CocoerciveMap, LipschitzMap
from drsplit.qp import BoxAffineSum, generate_instance, qp_operators
from drsplit.tseng import TsengProblem, gamma_max, tseng_solve, tseng_step

Z_HAT = np.array([4.0])


def _scalar_problem(gamma=1.0, sigma=0.99):
    """Box [0, 10] plus the identity map in one dimension, no F1."""
    return TsengProblem(
        C=BoxNormalCone(np.zeros(1), 10.0 * np.ones(1)),
        F1=None,
        F2=CocoerciveMap(eval=lambda z: z, eta=1.0),
        gamma=gamma,
        sigma=sigma,
    )


def test_gamma_max_frozen_and_limit():
    assert gamma_max(0.5, 1.0, 0.5) == pytest.approx(0.20710678118654754,
                                                     rel=0, abs=1e-15)
    # L = 0 collapses to 2 eta sigma^2
    assert gamma_max(0.7, 0.0, 0.9) == pytest.approx(2 * 0.7 * 0.81,
                                                     rel=1e-14)
    with pytest.raises(ValueError):
        gamma_max(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        gamma_max(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        gamma_max(1.0, 1.0, 1.0)


def test_problem_validation():
    p = _scalar_problem()
    with pytest.raises(ValueError):
        tseng_solve(p, Z_HAT, 0.0)
    with pytest.raises(ValueError):
        _scalar_problem(gamma=0.0)
    with pytest.raises(ValueError):
        _scalar_problem(sigma=1.5)
    # gamma above the stepsize cap 2*eta*sigma^2
    with pytest.raises(ValueError):
        _scalar_problem(gamma=1.97, sigma=0.99)


def test_scalar_hand_step():
    p = _scalar_problem()
    z_prime, z_tilde, z_next = tseng_step(p, Z_HAT, Z_HAT)
    assert_allclose(z_prime, [4.0])
    assert_allclose(z_tilde, [2.0])
    assert_allclose(z_next, [2.0])
    # exit lhs = ||4-2||^2 + 1*||4-2||^2/2 = 6, boundary counts as done
    out = tseng_solve(p, Z_HAT, 6.0)
    assert out.inner_iters == 1
    assert_allclose(out.z_next, [2.0])
    assert_allclose(out.z_tilde, [2.0])
    assert out.eps == pytest.approx(1.0)


def test_scalar_second_step_is_exact():
    # below the boundary the first step fails the test; the second lands
    # on the exact resolvent (2 + 2 - 4)/2 = 0 displacement
    out = tseng_solve(_scalar_problem(), Z_HAT, 5.9)
    assert out.inner_iters == 2
    assert_allclose(out.z_next, [2.0])
    assert_allclose(out.z_prev, [2.0])


def test_hand_step_certificate():
    p = _scalar_problem()
    certs = []
    tseng_solve(p, Z_HAT, 6.0, cert_log=certs)
    cert, = certs
    assert cert.lam == p.gamma
    assert_allclose(cert.v, [2.0])
    assert cert.eps == pytest.approx(1.0)
    # lhs = ||2 + 2 - 4||^2 + 2*1*1 = 2, rhs = 0.9801*4
    assert verify_hpe_inequality(cert)


def test_certificates_along_seeded_solves():
    for seed in range(5):
        inst = generate_instance(8, True, seed + 40)
        ops = qp_operators(inst)
        sigma = 0.9
        gamma = gamma_max(ops.eta, 0.0, sigma)
        rng = np.random.default_rng(seed)
        z_hat = rng.uniform(-5.0, 15.0, 8)
        p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, gamma=gamma,
                         sigma=sigma)
        certs = []
        out = tseng_solve(p, z_hat, 1e-10, cert_log=certs)
        assert len(certs) == out.inner_iters
        for c in certs:
            assert verify_hpe_inequality(c)
            assert c.eps >= 0.0


def test_converges_to_exact_resolvent():
    # driving tau_hat down pins z_next to the resolvent of the full sum
    inst = generate_instance(10, True, 17)
    ops = qp_operators(inst)
    gamma = 2.0 * ops.eta * 0.99 ** 2
    z_hat = np.full(10, 7.0)
    p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, gamma=gamma, sigma=0.99)
    out = tseng_solve(p, z_hat, 1e-24, max_inner=5000)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    x_star, _ = B.resolvent(gamma, z_hat)
    assert np.linalg.norm(out.z_next - x_star) < 1e-8
    assert np.linalg.norm(out.z_tilde - x_star) < 1e-8


def test_budget_exceeded():
    # first step lands at lhs = 6, far above tau_hat
    with pytest.raises(IterationBudgetExceeded):
        tseng_solve(_scalar_problem(), Z_HAT, 1e-6, max_inner=1)


def test_one_f2_eval_per_step():
    # the QP family has no F1: each step evaluates F2 once, at z_prev
    # itself, and no F1 at all; the explicit zero map runs the projection,
    # F1 at z_prime and the correction at z_tilde
    inst = generate_instance(5, True, 31)
    ops = qp_operators(inst)
    assert ops.F1 is None
    gamma = 2.0 * ops.eta * 0.9 ** 2
    z_hat = np.full(5, 2.0)
    calls = {"F1": 0, "F2": 0}

    def counted(name, f):
        def g(z):
            calls[name] += 1
            return f(z)
        return g

    F2 = CocoerciveMap(eval=counted("F2", ops.F2.eval), eta=ops.F2.eta)
    zero = LipschitzMap(eval=counted("F1", np.zeros_like), L=0.0)
    counts = []
    for F1 in (None, zero):
        calls.update(F1=0, F2=0)
        p = TsengProblem(C=ops.C, F1=F1, F2=F2, gamma=gamma, sigma=0.9)
        out = tseng_solve(p, z_hat, 1e-8, max_inner=5000)
        assert out.inner_iters > 1
        counts.append((dict(calls), out.inner_iters))
    (absent, k), (explicit, k_zero) = counts
    assert absent == {"F1": 0, "F2": k}
    assert explicit == {"F1": 2 * k_zero, "F2": k_zero}


def test_absent_f1_matches_explicit_zero_map_bitwise():
    # F1=None skips the projection, the F1 evaluations and the correction;
    # the explicit zero map runs all three.  Adding and subtracting exact
    # zeros changes no bit, so outputs and certificates must agree
    inst = generate_instance(8, True, 12)
    ops = qp_operators(inst)
    rng = np.random.default_rng(12)
    z_hat = rng.uniform(-5.0, 15.0, 8)
    sigma = 0.9
    gamma = gamma_max(ops.eta, 0.0, sigma)
    outs, logs = [], []
    for F1 in (None, LipschitzMap(eval=np.zeros_like, L=0.0)):
        p = TsengProblem(C=ops.C, F1=F1, F2=ops.F2, gamma=gamma, sigma=sigma)
        certs = []
        outs.append(tseng_solve(p, z_hat, 1e-20, max_inner=5000,
                                cert_log=certs))
        logs.append(certs)
    absent, explicit = outs
    assert absent.inner_iters == explicit.inner_iters > 1
    for name in ("z_prev", "z_next", "z_tilde", "eps"):
        assert_array_equal(getattr(absent, name), getattr(explicit, name))
    assert len(logs[0]) == len(logs[1]) == absent.inner_iters
    for a, b in zip(*logs):
        for x, y in zip(a, b):
            assert_array_equal(x, y)
