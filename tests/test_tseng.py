import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.errors import IterationBudgetExceeded
from drsplit.hpe import verify_hpe_inequality
from drsplit.operators import BoxNormalCone, CocoerciveMap, LipschitzMap
from drsplit.qp import BoxAffineSum, generate_instance, qp_operators
from drsplit.tseng import (
    TsengProblem,
    embed_strongly_monotone,
    gamma_max,
    tseng_solve,
    tseng_step,
)


def _scalar_problem(tau_hat, gamma=1.0, sigma=0.99, z_hat=4.0):
    """Box [0, 10] plus the identity map in one dimension."""
    return TsengProblem(
        C=BoxNormalCone(np.zeros(1), 10.0 * np.ones(1)),
        F1=LipschitzMap.zero(),
        F2=CocoerciveMap(eval=lambda z: z, eta=1.0),
        z_hat=np.array([float(z_hat)]),
        gamma=gamma,
        tau_hat=tau_hat,
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
    with pytest.raises(ValueError):
        _scalar_problem(tau_hat=0.0)
    with pytest.raises(ValueError):
        _scalar_problem(tau_hat=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        _scalar_problem(tau_hat=1.0, sigma=1.5)
    # gamma above the stepsize cap 2*eta*sigma^2
    with pytest.raises(ValueError):
        _scalar_problem(tau_hat=1.0, gamma=1.97, sigma=0.99)


def test_scalar_hand_step():
    p = _scalar_problem(tau_hat=6.0)
    z_prime, z_tilde, z_next = tseng_step(p, p.z_hat)
    assert_allclose(z_prime, [4.0])
    assert_allclose(z_tilde, [2.0])
    assert_allclose(z_next, [2.0])
    # exit lhs = ||4-2||^2 + 1*||4-2||^2/2 = 6, boundary counts as done
    out = tseng_solve(p)
    assert out.inner_iters == 1
    assert_allclose(out.z_next, [2.0])
    assert_allclose(out.z_tilde, [2.0])


def test_scalar_second_step_is_exact():
    # below the boundary the first step fails the test; the second lands
    # on the exact resolvent (2 + 2 - 4)/2 = 0 displacement
    p = _scalar_problem(tau_hat=5.9)
    out = tseng_solve(p)
    assert out.inner_iters == 2
    assert_allclose(out.z_next, [2.0])
    assert_allclose(out.z_prev, [2.0])


def test_hand_step_certificate():
    p = _scalar_problem(tau_hat=6.0)
    z_prime, z_tilde, z_next = tseng_step(p, p.z_hat)
    cert = embed_strongly_monotone(p.z_hat, z_prime, z_tilde, z_next, p)
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
        p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, z_hat=z_hat,
                         gamma=gamma, tau_hat=1e-10, sigma=sigma)
        certs = []
        out = tseng_solve(p, cert_log=certs)
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
    p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, z_hat=z_hat,
                     gamma=gamma, tau_hat=1e-24, sigma=0.99)
    out = tseng_solve(p, max_inner=5000)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    x_star, _ = B.resolvent(gamma, z_hat)
    assert np.linalg.norm(out.z_next - x_star) < 1e-8
    assert np.linalg.norm(out.z_tilde - x_star) < 1e-8


def test_budget_exceeded():
    # first step lands at lhs = 6, far above tau_hat
    p = _scalar_problem(tau_hat=1e-6)
    with pytest.raises(IterationBudgetExceeded):
        tseng_solve(p, max_inner=1)


def test_one_f2_eval_per_step():
    inst = generate_instance(5, True, 31)
    ops = qp_operators(inst)
    calls = [0]
    f1_calls = [0]
    base = ops.F2.eval

    def counted(z):
        calls[0] += 1
        return base(z)

    def counted_f1(z):
        f1_calls[0] += 1
        return ops.F1.eval(z)

    F1 = LipschitzMap(eval=counted_f1, L=ops.F1.L)
    F2 = CocoerciveMap(eval=counted, eta=ops.F2.eta)
    gamma = 2.0 * ops.eta * 0.9 ** 2
    p = TsengProblem(C=ops.C, F1=F1, F2=F2, z_hat=np.full(5, 2.0),
                     gamma=gamma, tau_hat=1e-8, sigma=0.9)
    out = tseng_solve(p, max_inner=5000)
    assert out.inner_iters > 1
    assert calls[0] == out.inner_iters
    # the QP's F1 is the zero map (L = 0): evaluated at z_prime only, the
    # correction at z_tilde is skipped
    assert f1_calls[0] == out.inner_iters


def test_constant_f1_skips_the_correction_bitwise():
    # a constant nonzero F1 declared with L = 0 takes the short-circuit;
    # declared with L > 0 it runs the correction z_tilde - gamma*(c - c).
    # Both must give the same bits, and a correction that drops f1_prime
    # would move z_next by gamma*c
    inst = generate_instance(8, True, 12)
    ops = qp_operators(inst)
    rng = np.random.default_rng(12)
    c = rng.uniform(-3.0, 3.0, 8)
    z_hat = rng.uniform(-5.0, 15.0, 8)
    sigma = 0.9
    gamma = gamma_max(ops.eta, 0.1, sigma)
    outs, logs = [], []
    for L in (0.0, 0.1):
        F1 = LipschitzMap(eval=lambda z: c, L=L)
        p = TsengProblem(C=ops.C, F1=F1, F2=ops.F2, z_hat=z_hat,
                         gamma=gamma, tau_hat=1e-20, sigma=sigma)
        certs = []
        outs.append(tseng_solve(p, max_inner=5000, cert_log=certs))
        logs.append(certs)
    short, full = outs
    assert short.inner_iters == full.inner_iters > 1
    for field in ("z_prev", "z_prime_prev", "z_next", "z_tilde"):
        assert_array_equal(getattr(short, field), getattr(full, field))
    for a, b in zip(*logs):
        for x, y in zip(a, b):
            assert_array_equal(x, y)
