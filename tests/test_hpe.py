"""Certificate verification, the ergodic reader against its reference,
and rate envelopes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.drs import DrsState, drs_ergodic
from drsplit.errors import InvariantViolation
from drsplit.hpe import (
    HpeStepCertificate,
    RateEnvelope,
    ergodic_bound,
    pointwise_bound,
    strong_rate,
    verify_hpe_inequality,
    verify_hpe_rows,
)
from oracles import EnlargementTriple, transport_ergodic


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


def test_certificate_with_an_infinite_bound_fails():
    # ||z_tilde - z_prev||^2 overflows to rhs = inf, and with eps = inf the
    # check read inf <= inf + slack(inf): it passed.  A finite row keeps
    # its verdict beside it
    big, fine = _cert(0.0, 1e300, -1e300, np.inf), _cert(0.0, 1.0, -0.5, 0.1)
    with np.errstate(over="ignore"):
        assert not verify_hpe_inequality(big)
        rows = verify_hpe_rows(*map(np.stack, zip(big[:3], fine[:3])),
                               np.array([np.inf, 0.1]), 1.0, 0.99)
    assert rows.tolist() == [False, True]


def _verify_row(cert):
    # verify_hpe_rows on a block of one row
    return bool(verify_hpe_rows(*(x[None] for x in cert[:3]),
                                np.array([cert.eps]), cert.lam,
                                cert.sigma)[0])


both_verifiers = pytest.mark.parametrize(
    "verify", [verify_hpe_inequality, _verify_row], ids=["scalar", "rows"])


@both_verifiers
@pytest.mark.parametrize("fields", [
    dict(eps=-1e3), dict(sigma=10.0), dict(sigma=-10.0),
    dict(lam=-1.0, eps=1e3)], ids=["eps<0", "sigma>1", "sigma<0", "lam<0"])
def test_certificate_outside_the_hpe_definition_fails(verify, fields):
    # the step fails honestly at eps = 0, lam = 1, sigma = 0.5; each field
    # change made the inequality hold, with eps, lam or sigma outside
    # the definition (eps >= 0, lam > 0, 0 <= sigma < 1)
    honest = HpeStepCertificate(np.zeros(3), np.ones(3), np.full(3, 5.0),
                                0.0, 1.0, 0.5)
    assert not verify(honest)
    assert not verify(honest._replace(**fields))


@both_verifiers
@pytest.mark.parametrize("field", ["eps", "lam", "sigma"])
def test_certificate_with_a_nan_field_fails(verify, field):
    good = _cert(0.0, 1.0, -0.5, 0.1)
    assert verify(good)
    assert not verify(good._replace(**{field: np.nan}))


def _history(x, b, eps_b, y, a):
    # a DrsState whose extragradient history is the given data
    state = DrsState(np.zeros(len(x[0])), 1.0)
    state.hist_x, state.hist_b, state.hist_eps_b = x, b, eps_b
    state.hist_y, state.hist_a = y, a
    return state


def test_accumulator_mirrored_pair():
    # drs_ergodic on two mirrored triples: the averages cancel and the
    # correction terms carry the whole enlargement
    z = [np.array([1.0]), np.array([-1.0])]
    out = drs_ergodic(_history(z, z, [0.0, 0.0], z, z))
    assert_allclose(out.x, [0.0])
    assert_allclose(out.b, [0.0])
    assert out.eps_b == pytest.approx(1.0)
    assert out.eps_a == pytest.approx(1.0)


def test_accumulator_matches_transport_formula():
    # drs_ergodic and the brute-force transported combination at uniform
    # weights agree on both halves; monotone-generated data keeps eps
    # well defined
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        Wb, Wa = (M.T @ M for M in rng.standard_normal((2, n, n)))
        xs = [rng.standard_normal(n) * 2.0 for _ in range(m)]
        ys = [rng.standard_normal(n) * 2.0 for _ in range(m)]
        bs = [Wb @ x for x in xs]
        as_ = [Wa @ y for y in ys]
        eps_b = [float(rng.random()) for _ in range(m)]
        got = drs_ergodic(_history(xs, bs, eps_b, ys, as_))
        w = np.full(m, 1.0 / m)
        want_b = transport_ergodic(
            [EnlargementTriple(x, b, e) for x, b, e in zip(xs, bs, eps_b)], w)
        want_a = transport_ergodic(
            [EnlargementTriple(y, a, 0.0) for y, a in zip(ys, as_)], w)
        for z, v, eps, want in ((got.x, got.b, got.eps_b, want_b),
                                (got.y, got.a, got.eps_a, want_a)):
            assert_allclose(z, want.z, atol=1e-12)
            assert_allclose(v, want.v, atol=1e-12)
            assert eps == pytest.approx(want.eps, abs=1e-12)


def test_accumulator_flags_negative_ergodic_eps():
    # anti-monotone history: the averaged enlargement is clearly negative
    z = [np.array([1.0]), np.array([-1.0])]
    v = [-zl for zl in z]
    with pytest.raises(InvariantViolation):
        drs_ergodic(_history(z, v, [0.0, 0.0], z, v))
    # a NaN enlargement in the history is no smaller than zero either
    with pytest.raises(InvariantViolation, match="NaN"):
        drs_ergodic(_history(z, z, [float("nan"), 0.0], z, z))


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


def test_rate_envelope_rejects_nan_constants():
    good = dict(d0=1.0, lambda_min=1.0, sigma=0.5, mu=1.0)
    for name in good:
        with pytest.raises(ValueError):
            RateEnvelope(**{**good, name: float("nan")})


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
    strong = RateEnvelope(d0=1.0, lambda_min=1.0, sigma=0.9, mu=1.0)
    for bound in (pointwise_bound, ergodic_bound, strong_rate):
        with pytest.raises(ValueError, match="j must be"):
            bound(strong, float("nan"))
