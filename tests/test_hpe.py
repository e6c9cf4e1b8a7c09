"""Certificate verification, ergodic accumulation, and rate envelopes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.errors import InvariantViolation, StateError
from drsplit.hpe import (
    ErgodicAccumulator,
    HpeStepCertificate,
    RateEnvelope,
    ergodic_bound,
    pointwise_bound,
    strong_rate,
    verify_hpe_inequality,
)
from drsplit.operators import EnlargementTriple, transport_ergodic


def _cert(z_prev, z_tilde, v, eps, lam=1.0, sigma=0.99):
    return HpeStepCertificate(np.atleast_1d(np.asarray(z_prev, float)),
                              np.atleast_1d(np.asarray(z_tilde, float)),
                              np.atleast_1d(np.asarray(v, float)),
                              eps, lam, sigma)


def test_verify_hand_example():
    # lhs = ||-0.5 + 1||^2 + 2*0.1 = 0.45, rhs = 0.9801
    assert verify_hpe_inequality(_cert(0.0, 1.0, -0.5, 0.1))
    # pushing eps to 0.5 lifts lhs to 1.25 > rhs
    assert not verify_hpe_inequality(_cert(0.0, 1.0, -0.5, 0.5))


def test_verify_boundary_has_slack():
    # v cancels the displacement, eps = sigma^2/2 * ||z_tilde - z_prev||^2
    # puts lhs exactly on the boundary; the comparison is inclusive
    sigma = 0.5
    assert verify_hpe_inequality(_cert(0.0, 1.0, -1.0, sigma ** 2 / 2.0,
                                       sigma=sigma))


def test_accumulator_requires_data():
    acc = ErgodicAccumulator()
    with pytest.raises(StateError):
        acc.read()


def test_accumulator_mirrored_pair():
    acc = ErgodicAccumulator()
    acc.push(np.array([1.0]), np.array([1.0]), 0.0, 1.0)
    acc.push(np.array([-1.0]), np.array([-1.0]), 0.0, 1.0)
    out = acc.read()
    assert_allclose(out.z, [0.0])
    assert_allclose(out.v, [0.0])
    assert out.eps == pytest.approx(1.0)
    assert acc.count == 2
    assert acc.Lambda == pytest.approx(2.0)


def test_accumulator_matches_transport_formula():
    # the streaming average and the brute-force transported combination
    # agree; monotone-generated data keeps eps well defined
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        M = rng.standard_normal((n, n))
        W = M.T @ M
        acc = ErgodicAccumulator()
        triples, lams = [], []
        for _ in range(m):
            z = rng.standard_normal(n) * 2.0
            v = W @ z
            eps = float(rng.random())
            lam = float(rng.random()) + 0.1
            acc.push(z, v, eps, lam)
            triples.append(EnlargementTriple(z, v, eps))
            lams.append(lam)
        got = acc.read()
        w = np.asarray(lams) / np.sum(lams)
        want = transport_ergodic(triples, w)
        assert_allclose(got.z, want.z, atol=1e-12)
        assert_allclose(got.v, want.v, atol=1e-12)
        assert got.eps == pytest.approx(want.eps, abs=1e-12)


def test_accumulator_push_validation():
    acc = ErgodicAccumulator()
    with pytest.raises(ValueError):
        acc.push(np.zeros(1), np.zeros(1), 0.0, 0.0)
    with pytest.raises(ValueError):
        acc.push(np.zeros(1), np.zeros(1), -1e-3, 1.0)


def test_accumulator_flags_negative_ergodic_eps():
    acc = ErgodicAccumulator()
    acc.push(np.array([1.0]), np.array([-1.0]), 0.0, 1.0)
    acc.push(np.array([-1.0]), np.array([1.0]), 0.0, 1.0)
    with pytest.raises(InvariantViolation):
        acc.read()


def test_rate_envelope_alpha_frozen():
    env = RateEnvelope(d0=1.0, lambda_min=1.0, sigma=0.99, mu=1.0)
    assert env.alpha == pytest.approx(0.019703945739888144, rel=0, abs=1e-15)


def test_alpha_closed_form_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = float(rng.random()) + 0.1
        mu = float(rng.random()) + 0.1
        s = float(rng.uniform(0.05, 0.95))
        env = RateEnvelope(d0=1.0, lambda_min=lam, sigma=s, mu=mu)
        want = 1.0 / (1.0 / (2 * lam * mu) + 1.0 / (1 - s ** 2))
        assert env.alpha == pytest.approx(want, rel=1e-14)
        assert 0 < env.alpha < 1


def test_pointwise_bound_frozen():
    env = RateEnvelope(d0=1.0, lambda_min=1.0, sigma=0.99)
    rho, eps = pointwise_bound(env, 100)
    assert rho == pytest.approx(1.4106735979665879, rel=0, abs=1e-15)
    assert eps == pytest.approx(0.24625628140703482, rel=0, abs=1e-15)


def test_ergodic_bound_frozen():
    env = RateEnvelope(d0=2.0, lambda_min=1.0, sigma=0.99)
    rho, eps = ergodic_bound(env, 10)
    assert rho == pytest.approx(0.4, rel=0, abs=1e-15)
    assert eps == pytest.approx(6.414339143666017, rel=0, abs=1e-12)


def test_bounds_decay():
    env = RateEnvelope(d0=3.0, lambda_min=0.5, sigma=0.9)
    pw = [pointwise_bound(env, j) for j in (1, 4, 16, 64)]
    er = [ergodic_bound(env, j) for j in (1, 4, 16, 64)]
    for seq in (pw, er):
        rhos = [r for r, _ in seq]
        epss = [e for _, e in seq]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert all(a > b for a, b in zip(epss, epss[1:]))
    # pointwise rho is O(1/sqrt j): quartering j halves the bound
    assert pw[1][0] == pytest.approx(pw[0][0] / 2.0, rel=1e-12)
    # ergodic rho is O(1/j)
    assert er[1][0] == pytest.approx(er[0][0] / 4.0, rel=1e-12)


def test_strong_rate_linear_decay():
    env = RateEnvelope(d0=2.0, lambda_min=1.0, sigma=0.99, mu=1.0)
    v1, e1 = strong_rate(env, 1)
    s = env.sigma
    assert v1 == pytest.approx(np.sqrt((1 + s) / (1 - s)) * env.d0, rel=1e-12)
    assert e1 == pytest.approx(s ** 2 / (2 * (1 - s ** 2)) * env.d0 ** 2,
                               rel=1e-12)
    v2, e2 = strong_rate(env, 2)
    assert v2 == pytest.approx(v1 * np.sqrt(1 - env.alpha), rel=1e-12)
    assert e2 == pytest.approx(e1 * (1 - env.alpha), rel=1e-12)


def test_rate_domain_errors():
    env = RateEnvelope(d0=1.0, lambda_min=1.0, sigma=0.9)
    with pytest.raises(ValueError):
        pointwise_bound(env, 0)
    with pytest.raises(ValueError):
        ergodic_bound(env, 0)
    with pytest.raises(ValueError):
        strong_rate(env, 1)  # mu = 0
    with pytest.raises(ValueError):
        strong_rate(RateEnvelope(d0=1.0, lambda_min=1.0, sigma=0.9, mu=1.0), 0)
