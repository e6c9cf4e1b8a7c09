import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.bench import initial_point
from drsplit.drs import DrsState, drs_iterate
from drsplit.errors import (ContractViolation, InvariantViolation,
                            IterationBudgetExceeded)
from drsplit.hpe import verify_hpe_inequality
from drsplit.operators import (AffineCocoerciveMap, BoxNormalCone,
                               CocoerciveMap, LipschitzMap)
from drsplit.qp import (drt_problem, faces_instance, generate_instance,
                        qp_operators)
import drsplit.tseng as tseng_module
from drsplit.tseng import (CertBlock, TsengProblem, gamma_max, tseng_solve,
                           tseng_step)
from oracles import BoxAffineSum, textbook_tseng

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
    with pytest.raises(ValueError, match="eta"):
        gamma_max(float("nan"), 0.0, 0.5)
    with pytest.raises(ValueError, match="L must"):
        gamma_max(1.0, float("nan"), 0.5)


def test_gamma_max_keeps_the_formula_bitwise_where_it_is_finite():
    # the textbook expression, wherever none of its squares overflows
    for eta in (1e-300, 1e-8, 0.37, 1.0, 3.5e4, 1e100, 1e150):
        for L in (0.0, 1e-12, 0.5, 1.0, 7.25, 1e30):
            if L * eta > 1e150:
                continue
            for sigma in (1e-3, 0.5, 0.9, 0.99):
                want = 4.0 * eta * sigma ** 2 / (
                    1.0 + np.sqrt(1.0 + 16.0 * L ** 2 * eta ** 2 * sigma ** 2))
                assert gamma_max(eta, L, sigma) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_max_at_infinite_and_at_large_eta():
    # eta = inf (F2 = 0) gives the limits sigma/L and, at L = 0, inf
    inf = float("inf")
    assert gamma_max(inf, 0.0, 0.5) == inf
    assert gamma_max(inf, 1.0, 0.5) == 0.5
    assert gamma_max(inf, 4.0, 0.9) == 0.9 / 4.0
    # a finite eta whose square overflows gets a finite value, near the
    # limit sigma/L (or 2 eta sigma^2 at L = 0), also as a numpy scalar
    for eta in (1e200, np.float64(1e200), 1e300):
        assert gamma_max(eta, 1.0, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert gamma_max(eta, 0.0, 0.5) == pytest.approx(eta / 2.0,
                                                         rel=1e-15)
    # L eta sigma past the root's overflow: sigma/L, not 0
    assert gamma_max(1e100, 1e100, 0.5) == pytest.approx(5e-101, rel=1e-15)


def test_problem_with_an_infinite_eta_rejects_gamma_above_sigma_over_l():
    # F2 = 0 (eta = inf) with an L = 1 map: gamma_max = sigma/L = 0.5
    box = BoxNormalCone(np.zeros(2), np.ones(2))
    F1 = LipschitzMap(eval=lambda z: z, L=1.0)
    F2 = CocoerciveMap(eval=np.zeros_like, eta=float("inf"))
    with pytest.raises(ValueError, match=r"^gamma=1000000000.0 exceeds "
                                         r"gamma_max=0.5$"):
        TsengProblem(C=box, F1=F1, F2=F2, gamma=1e9, sigma=0.5)
    assert TsengProblem(C=box, F1=F1, F2=F2, gamma=0.5, sigma=0.5).gamma == 0.5


def test_problem_rejects_an_infinite_gamma():
    # at eta = inf and L = 0 gamma_max is inf, which gamma = inf does not
    # exceed; its first solve then multiplied inf by 0
    F2 = CocoerciveMap(eval=np.zeros_like, eta=float("inf"))
    with pytest.raises(ValueError, match="^gamma must be positive and finite$"):
        TsengProblem(C=BoxNormalCone(np.zeros(2), np.ones(2)), F1=None, F2=F2,
                     gamma=float("inf"), sigma=0.5)


def test_affine_map_of_another_dimension_than_the_cone_is_rejected():
    box = BoxNormalCone(-np.ones(6), np.ones(6))
    F2 = AffineCocoerciveMap(Q=np.eye(7), e=np.zeros(7), eta=1.0)
    for F1 in (None, LipschitzMap(eval=np.zeros_like, L=0.0)):
        with pytest.raises(ValueError,
                           match=r"^F2 has dimension 7, C has dimension 6$"):
            TsengProblem(C=box, F1=F1, F2=F2, gamma=1.0, sigma=0.99)


def test_problem_rejects_nan_eta():
    # the guard gamma > gamma_max is False for a NaN gamma_max, so
    # gamma_max itself rejects a NaN eta; the duck-typed F2 reaches it
    # past CocoerciveMap's own check
    box = BoxNormalCone(np.zeros(1), np.ones(1))
    f2 = SimpleNamespace(eval=lambda z: z, eta=float("nan"))
    with pytest.raises(ValueError, match="eta"):
        TsengProblem(C=box, F1=None, F2=f2, gamma=1.0, sigma=0.5)
    with pytest.raises(ValueError, match="eta"):
        TsengProblem(C=box, F1=None,
                     F2=CocoerciveMap(eval=lambda z: z, eta=float("nan")),
                     gamma=1.0, sigma=0.5)


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
    with pytest.raises(ValueError):
        _scalar_problem(gamma=float("nan"))
    with pytest.raises(ValueError):
        tseng_solve(p, Z_HAT, float("nan"))


def test_scalar_hand_step():
    p = _scalar_problem()
    z_prime, z_tilde, z_next = tseng_step(p, Z_HAT, Z_HAT)
    assert_allclose(z_prime, [4.0])
    assert_allclose(z_tilde, [2.0])
    assert_allclose(z_next, [2.0])
    # exit lhs = ||4-2||^2 + 1*||4-2||^2/2 = 6, boundary counts as done;
    # x = z_tilde, b = (z_hat + z_prev - (z_next + z_tilde))/gamma
    x, b, eps, inner = tseng_solve(p, Z_HAT, 6.0)
    assert inner == 1
    assert_allclose(x, [2.0])
    assert_allclose(b, [4.0])
    assert eps == pytest.approx(1.0)
    # the exit test is the B-solver contract: gamma*b + x - z_hat is
    # z_prev - z_next = 2, and 2^2 + 2*gamma*eps = 6 <= tau_hat
    assert_allclose(p.gamma * b + x - Z_HAT, [2.0])


def test_scalar_second_step_is_exact():
    # below the boundary the first step fails the test; the second starts
    # at 2, the exact resolvent, and does not move (z_prev = z_next = 2), so
    # b = (z_hat - x)/gamma = 2 = x is the identity map's value at x
    x, b, eps, inner = tseng_solve(_scalar_problem(), Z_HAT, 5.9)
    assert inner == 2
    assert_allclose(x, [2.0])
    assert_allclose(b, [2.0])
    assert eps == 0.0


def test_hand_step_certificate():
    p = _scalar_problem()
    certs = []
    with CertBlock(p, certs) as block:
        tseng_solve(p, Z_HAT, 6.0, cert_log=block)
    cert, = certs
    assert cert.lam == p.gamma
    assert_allclose(cert.v, [2.0])
    assert cert.eps == pytest.approx(1.0)
    # lhs = ||2 + 2 - 4||^2 + 2*1*1 = 2, rhs = 0.9801*4
    assert verify_hpe_inequality(cert)


def test_a_list_certificate_log_fails_before_the_first_step(monkeypatch):
    # steps are certified only through a CertBlock the caller opens
    steps = []
    monkeypatch.setattr(tseng_module, "tseng_step",
                        lambda *args: steps.append(args))
    certs = []
    with pytest.raises(AttributeError, match="begin"):
        tseng_solve(_scalar_problem(), Z_HAT, 6.0, cert_log=certs)
    assert steps == [] and certs == []


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
        with CertBlock(p, certs) as block:
            *_, inner = tseng_solve(p, z_hat, 1e-10, cert_log=block)
        assert len(certs) == inner
        for c in certs:
            assert verify_hpe_inequality(c)
            assert c.eps >= 0.0


def test_gamma_above_gamma_max_fails_the_first_certificate():
    # without F1, lam*v + z_tilde - z_prev is zero up to round-off and
    # 2*gamma*eps = gamma/(2 eta)*||z_tilde - z_prev||^2, which exceeds
    # sigma^2 times that norm exactly when gamma > gamma_max = 2 eta sigma^2
    inst = generate_instance(8, True, 40)
    ops = qp_operators(inst)
    sigma = 0.9
    p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2,
                     gamma=gamma_max(ops.eta, 0.0, sigma), sigma=sigma)
    object.__setattr__(p, "gamma", 1.5 * p.gamma)
    z_hat = np.random.default_rng(40).uniform(-5.0, 15.0, 8)
    certs = []
    with pytest.raises(InvariantViolation, match=r"^inner step 1 failed"):
        with CertBlock(p, certs) as block:
            tseng_solve(p, z_hat, 1e-10, cert_log=block)
    assert certs == []
    # without a certificate log the same loop runs to its exit
    *_, inner = tseng_solve(p, z_hat, 1e-10)
    assert inner > 1
    # the failed certificate of step 1 takes precedence over the budget
    # error that ends the loop at step 3
    with pytest.raises(IterationBudgetExceeded):
        tseng_solve(p, z_hat, 1e-30, max_inner=3)
    with pytest.raises(InvariantViolation, match=r"^inner step 1 failed"):
        with CertBlock(p, []) as block:
            tseng_solve(p, z_hat, 1e-30, max_inner=3, cert_log=block)


def test_converges_to_exact_resolvent():
    # driving tau_hat down pins x to the resolvent of the full sum, and
    # gamma*b to z_hat - x, the exact resolvent's
    inst = generate_instance(10, True, 17)
    ops = qp_operators(inst)
    gamma = gamma_max(ops.eta, 0.0, 0.99)
    z_hat = np.full(10, 7.0)
    p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, gamma=gamma, sigma=0.99)
    x, b, eps, _ = tseng_solve(p, z_hat, 1e-24, max_inner=5000)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    x_star = B.resolvent(gamma, z_hat)
    assert np.linalg.norm(x - x_star) < 1e-8
    assert np.linalg.norm(gamma * b - (z_hat - x_star)) < 1e-8
    assert 0.0 <= eps < 1e-20


def test_budget_exceeded():
    # first step lands at lhs = 6, far above tau_hat; a numpy integer is a
    # budget as an int is
    for max_inner in (1, np.int64(1)):
        with pytest.raises(IterationBudgetExceeded):
            tseng_solve(_scalar_problem(), Z_HAT, 1e-6, max_inner=max_inner)


@pytest.mark.parametrize("max_inner", [2.5, float("nan"), 0, -3])
def test_inner_budget_that_is_not_a_positive_integer_is_rejected(max_inner):
    # a fraction or NaN reached range() as a bare TypeError, and 0 or -3
    # ended as a budget error "in 0 steps"
    with pytest.raises(ValueError, match="^max_inner must be an integer >= 1$"):
        tseng_solve(_scalar_problem(), Z_HAT, 1e-6, max_inner=max_inner)


def test_one_f2_eval_per_step():
    # the QP family has no F1: each step evaluates F2 once, at z_prev
    # itself, and no F1 at all; the explicit zero map runs the projection,
    # F1 at z_prime and the correction at z_tilde
    inst = generate_instance(5, True, 31)
    ops = qp_operators(inst)
    assert ops.F1 is None
    gamma = gamma_max(ops.eta, 0.0, 0.9)
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
        *_, inner = tseng_solve(p, z_hat, 1e-8, max_inner=5000)
        assert inner > 1
        counts.append((dict(calls), inner))
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
    # the generic step: the affine one (p.G) is checked to round-off below
    F2 = CocoerciveMap(eval=ops.F2.eval, eta=ops.F2.eta)
    outs, logs = [], []
    for F1 in (None, LipschitzMap(eval=np.zeros_like, L=0.0)):
        p = TsengProblem(C=ops.C, F1=F1, F2=F2, gamma=gamma, sigma=sigma)
        assert p.G is None
        certs = []
        with CertBlock(p, certs) as block:
            outs.append(tseng_solve(p, z_hat, 1e-20, max_inner=5000,
                                    cert_log=block))
        logs.append(certs)
    absent, explicit = outs
    assert absent[3] == explicit[3] > 1
    for got, want in zip(absent, explicit):
        assert_array_equal(got, want)
    assert len(logs[0]) == len(logs[1]) == absent[3]
    for a, b in zip(*logs):
        for x, y in zip(a, b):
            assert_array_equal(x, y)


def _textbook_requests(family, seed, calls, generic):
    # the (z_hat, tau_hat) requests of the first outer calls of an n=100
    # solve, made through the generic step or the affine one
    n = 100
    inst = (generate_instance(n, True, seed) if family == "paper"
            else faces_instance(n, False, seed))
    z0 = initial_point(n, seed)
    prob = drt_problem(inst, z0, tol=1e-6)
    if generic:
        prob = replace(prob, F2=CocoerciveMap(eval=prob.F2.eval,
                                              eta=prob.F2.eta))
    assert (prob.tseng.G is None) == generic
    cfg = prob.cfg
    requests = []

    def recording(z_prev, tau):
        requests.append((z_prev, tau))
        return tseng_solve(prob.tseng, z_prev, tau)

    state = DrsState.initial(z0, cfg)
    for _ in range(calls):
        drs_iterate(state, cfg, recording, prob.A)
    return inst, cfg, prob, requests


@pytest.mark.parametrize("family", ["paper", "faces"])
def test_inner_loop_matches_textbook_reference_bitwise(family):
    # on the generic step every output and certificate must equal the
    # reference's bits
    inst, cfg, prob, requests = _textbook_requests(family, 3, 4,
                                                   generic=True)
    steps = 0
    for z_hat, tau_hat in requests:
        certs = []
        with CertBlock(prob.tseng, certs) as block:
            out = tseng_solve(prob.tseng, z_hat, tau_hat, cert_log=block)
        ref, ref_certs = textbook_tseng(inst, cfg.gamma, inst.eta, z_hat,
                                        tau_hat, sigma=cfg.sigma)
        for got, want in zip(out, ref):
            assert_array_equal(got, want)
        assert out[3] == ref[3] == len(certs) == len(ref_certs)
        for cert, want in zip(certs, ref_certs):
            for got, w in zip(cert, want):
                assert_array_equal(got, w)
        steps += out[3]
    assert steps > 4


@pytest.mark.parametrize("family", ["paper", "faces"])
def test_affine_step_matches_textbook_reference_to_round_off(family):
    # the affine step forms w = G z + c instead of (z_hat + z - gamma
    # F2(z))/2, so w differs from the reference's in its last bits.  The
    # map z -> P_X(G z + c) is a (1/2)-contraction (||G|| <= 1/2 at
    # gamma <= 2 eta), so those errors do not build up along the loop:
    # every step's iterates, x and gamma*b (a sum of iterates) stay within
    # BOUND of the reference's, 64 ulps of the box scale 10, and every
    # request takes as many steps
    BOUND = 64 * np.finfo(float).eps * 10.0
    worst, steps = 0.0, 0
    for seed in range(10):
        inst, cfg, prob, requests = _textbook_requests(
            family, seed, 30, generic=False)
        for z_hat, tau_hat in requests:
            certs = []
            with CertBlock(prob.tseng, certs) as block:
                x, b, _, inner = tseng_solve(prob.tseng, z_hat, tau_hat,
                                             cert_log=block)
            ref, ref_certs = textbook_tseng(inst, cfg.gamma, inst.eta,
                                            z_hat, tau_hat, sigma=cfg.sigma)
            assert inner == ref[3] == len(certs)
            assert all(verify_hpe_inequality(c) for c in certs)
            pairs = [(x, ref[0]), (cfg.gamma * b, cfg.gamma * ref[1])]
            pairs += [(c[i], r[i]) for c, r in zip(certs, ref_certs)
                      for i in (0, 1)]
            for got, want in pairs:
                worst = max(worst, float(np.abs(got - want).max()))
            steps += inner
    assert worst <= BOUND
    assert steps > 500


def test_affine_step_forms_its_constant_when_not_given():
    # c = z_hat/2 - h is bitwise (z_hat - gamma e)/2, and tseng_step
    # forms it itself when called with three arguments
    inst = faces_instance(20, False, 4)
    ops = qp_operators(inst)
    gamma = gamma_max(ops.eta, 0.0, 0.99)
    p = TsengProblem(C=ops.C, F1=None, F2=ops.F2, gamma=gamma, sigma=0.99)
    assert_array_equal(p.G, (np.eye(20) - gamma * inst.Q) / 2.0)
    z_hat = initial_point(20, 4)
    c = z_hat * 0.5 - p.h
    assert_array_equal(c, (z_hat - gamma * inst.e) / 2.0)
    z = np.random.default_rng(4).uniform(-5.0, 5.0, 20)
    for got, want in zip(tseng_step(p, z_hat, z), tseng_step(p, z_hat, z, c)):
        assert_array_equal(got, want)
    # any F1, or a non-affine F2, keeps the generic step
    zero = LipschitzMap(eval=np.zeros_like, L=0.0)
    generic = CocoerciveMap(eval=ops.F2.eval, eta=ops.F2.eta)
    for F1, F2 in ((zero, ops.F2), (None, generic)):
        q = TsengProblem(C=ops.C, F1=F1, F2=F2, gamma=gamma, sigma=0.99)
        assert q.G is None and q.h is None


def _faces_tseng(n, seed, generic=False):
    # a faces-family subproblem on the affine step, or, with generic=True,
    # on the generic one (an F2 that is not an AffineCocoerciveMap)
    ops = qp_operators(faces_instance(n, False, seed))
    F2 = CocoerciveMap(eval=ops.F2.eval, eta=ops.F2.eta) if generic else ops.F2
    return TsengProblem(C=ops.C, F1=None, F2=F2,
                        gamma=gamma_max(ops.eta, 0.0, 0.99), sigma=0.99)


def _checked(p):
    # the same problem with a zero trust radius: every step projects
    # through the checked resolvent
    q = TsengProblem(C=p.C, F1=p.F1, F2=p.F2, gamma=p.gamma, sigma=p.sigma)
    object.__setattr__(q, "trust_radius", 0.0)
    return q


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("z_hat", [np.zeros(7), np.float64(1.0),
                                   np.zeros((6, 1)), np.zeros((1, 6))],
                         ids=["n+1", "scalar", "column", "row"])
def test_misshapen_prox_centre_is_rejected_before_the_first_step(z_hat,
                                                                 generic):
    p = _faces_tseng(6, 0, generic)
    shape = np.shape(z_hat)
    with pytest.raises(ValueError,
                       match=rf"^z_hat must have shape \(6,\), got {re.escape(str(shape))}$"):
        with CertBlock(p, []) as block:
            tseng_solve(p, z_hat, 1e-8, cert_log=block)


def _vnorm(a):
    # np.linalg.norm warns when the square overflows; vdot returns inf
    return math.sqrt(np.vdot(a, a))


def test_trust_radius_is_set_only_for_an_affine_step_on_a_box():
    p = _faces_tseng(6, 0)
    r = np.linalg.norm(np.maximum(np.abs(p.C.lo), np.abs(p.C.hi)))
    want = min(1e150 - r, (1e300 - np.linalg.norm(p.h))
               / (np.linalg.norm(p.G) + 0.5))
    assert p.trust_radius == pytest.approx(want, rel=1e-14)
    assert p.trust_radius == pytest.approx(1e150, rel=1e-14)
    assert _faces_tseng(6, 0, generic=True).trust_radius == 0.0
    ops = qp_operators(faces_instance(100, False, 0))
    gamma = gamma_max(ops.eta, 0.0, 0.99)
    # an affine F2 on another cone keeps the checked resolvent
    q = TsengProblem(C=ops.A, F1=None, F2=ops.F2, gamma=gamma, sigma=0.99)
    assert q.G is not None and q.trust_radius == 0.0
    # a box whose corner is 1e150 long: ||r|| is not below 1e150 - ||r||
    wide = BoxNormalCone(np.full(100, -1e149), np.full(100, 1e149))
    assert _vnorm(np.full(100, 1e149)) == pytest.approx(1e150, rel=1e-14)
    q = TsengProblem(C=wide, F1=None, F2=ops.F2, gamma=gamma, sigma=0.99)
    assert q.G is not None and q.trust_radius == 0.0
    # an eta = inf that Q belies admits a huge gamma, and h and ||G||
    # overflow: q = -inf/inf is NaN, which gives a zero radius, not 1e150
    lie = AffineCocoerciveMap(Q=np.eye(2), e=np.full(2, 1e10),
                              eta=float("inf"))
    box = BoxNormalCone(np.zeros(2), np.ones(2))
    with np.errstate(over="ignore"):
        q = TsengProblem(C=box, F1=None, F2=lie, gamma=1e308, sigma=0.5)
    assert _vnorm(q.G) == _vnorm(q.h) == math.inf and q.trust_radius == 0


def _overflowing_centre(p, sign):
    # entries +-1.7e308 signed along the row of G with the largest diagonal
    # entry, so that row of w = G z_hat + c overflows
    i = int(np.argmax(np.diag(p.G)))
    z_hat = sign * 1.7e308 * np.where(p.G[i] >= 0, 1.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        w = p.G.dot(z_hat) + (z_hat * 0.5 - p.h)
    assert not np.isfinite(w).all()
    return z_hat


@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "1.7e308",
                                  "-1.7e308"])
def test_untrusted_prox_centre_keeps_the_checked_error(case):
    # a non-finite z_hat, or one whose w overflows, is not within the trust
    # radius and meets the point check of the resolvent at step 1, as it
    # would without the radius
    p = _faces_tseng(6, 0)
    if case.endswith("e308"):
        z_hat = _overflowing_centre(p, -1.0 if case[0] == "-" else 1.0)
    else:
        z_hat = np.zeros(6)
        z_hat[3] = float(case)
    for q in (p, _checked(p)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation,
                               match=r"^inner step 1: point contains "
                                     r"non-finite entries$"):
                with CertBlock(q, []) as block:
                    tseng_solve(q, z_hat, 1e-8, cert_log=block)


def _counting_check_dim(monkeypatch):
    calls = []
    base = BoxNormalCone._check_dim

    def counted(self, z):
        calls.append(1)
        return base(self, z)

    monkeypatch.setattr(BoxNormalCone, "_check_dim", counted)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e148, 1e150, 1e155, 1e299])
def test_trusted_solve_equals_the_checked_one_bitwise(scale, monkeypatch):
    # ||z_hat|| is about 13 scale and the radius 1e150: up to 1e148 the
    # solve takes the trusted path, from 1e150 on the checked one; either
    # way iterates, certificates and errors are those of the checked path,
    # bit for bit, and no overflowing square warns
    p = _faces_tseng(20, 2)
    z_hat = scale * np.random.default_rng(2).uniform(-5.0, 5.0, 20)
    trusted = scale <= 1e148
    assert (_vnorm(z_hat) < p.trust_radius) == trusted
    # from 1e155 on ||z_hat||^2 overflows, and so does step 1's square
    overflows = _vnorm(z_hat) == math.inf
    assert overflows == (scale >= 1e155)
    calls = _counting_check_dim(monkeypatch)
    runs = []
    for q in (p, _checked(p)):
        certs, error = [], None
        out = tseng_solve(q, z_hat, 1e-10)
        inner = out[3]
        del calls[:]
        try:
            with CertBlock(q, certs) as block:
                tseng_solve(q, z_hat, 1e-10, cert_log=block)
        except InvariantViolation as exc:
            error = str(exc)
        # trusted steps skip the point check; checked ones run it once each
        assert len(calls) == (0 if trusted and q is p else inner)
        runs.append((out, certs, error))
    (out, certs, error), (ref, ref_certs, ref_error) = runs
    assert out[3] == ref[3] > 1
    # when the square overflows, step 1's certificate has eps = inf and an
    # inf right-hand side; inf <= inf certifies nothing, so it fails
    assert error == ref_error == (
        "inner step 1 failed its certificate" if overflows else None)
    assert len(certs) == len(ref_certs) == (0 if overflows else out[3])
    for got, want in zip(out, ref):
        assert_array_equal(got, want)
    for cert, want in zip(certs, ref_certs):
        for got, w in zip(cert, want):
            assert_array_equal(got, w)


def test_point_check_runs_only_on_the_generic_step(monkeypatch):
    # the spy that keeps the gain: a trusted faces solve never calls the
    # box's point check, the generic step calls it once per inner step
    calls = _counting_check_dim(monkeypatch)
    z_hat = initial_point(100, 5)
    *_, inner = tseng_solve(_faces_tseng(100, 5), z_hat, 1e-8)
    assert inner > 1 and calls == []
    *_, inner = tseng_solve(_faces_tseng(100, 5, generic=True), z_hat, 1e-8)
    assert len(calls) == inner > 1


def test_direct_step_call_projects_through_the_checked_resolvent(monkeypatch):
    # trust is an argument of tseng_step: a caller that did not test the
    # bound gets the point check, and passing trusted=True changes no bit
    calls = _counting_check_dim(monkeypatch)
    p = _faces_tseng(8, 1)
    z_hat = initial_point(8, 1)
    checked = tseng_step(p, z_hat, z_hat)
    assert len(calls) == 1
    for got, want in zip(tseng_step(p, z_hat, z_hat, trusted=True), checked):
        assert_array_equal(got, want)
    assert len(calls) == 1
