"""Certificate verification, the ergodic reader on hand histories, and
the pointwise and ergodic bounds."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.drs import DrsState, drs_ergodic
from drsplit.hpe import (
    HpeStepCertificate,
    ergodic_bound,
    pointwise_bound,
    verify_hpe_inequality,
    verify_hpe_rows,
)


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
    dict(lam=-1.0, eps=1e3), dict(lam=np.inf)],
    ids=["eps<0", "sigma>1", "sigma<0", "lam<0", "lam=inf"])
def test_certificate_outside_the_hpe_definition_fails(verify, fields):
    # the step fails honestly at eps = 0, lam = 1, sigma = 0.5; each of
    # the first four field changes made the inequality hold, with eps, lam
    # or sigma outside the definition (eps >= 0, 0 < lam < inf,
    # 0 <= sigma < 1).  lam = inf meets the zero entry of v: inf*0 is NaN,
    # and the check fails before that product warns
    honest = HpeStepCertificate(np.zeros(3), np.ones(3),
                                np.array([5.0, 0.0, 5.0]), 0.0, 1.0, 0.5)
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


def test_ergodic_mirrored_pair():
    # drs_ergodic on two mirrored triples: the averages cancel and the
    # correction terms carry the whole enlargement
    z = [np.array([1.0]), np.array([-1.0])]
    out = drs_ergodic(_history(z, z, [0.0, 0.0], z, z))
    assert_allclose(out.x, [0.0])
    assert_allclose(out.b, [0.0])
    assert out.eps_b == pytest.approx(1.0)
    assert out.eps_a == pytest.approx(1.0)


def test_pointwise_bound_frozen():
    assert pointwise_bound(1.0, 0.99, 100) == (1.4106735979665879,
                                               0.24625628140703482)


def test_ergodic_bound_frozen():
    assert ergodic_bound(2.0, 0.99, 10) == (0.4, 6.414339143666017)


@pytest.mark.parametrize("bound", [pointwise_bound, ergodic_bound])
def test_a_bound_on_an_array_is_the_scalar_calls_bit_for_bit(bound):
    # one call on indices 1..300 returns, element by element, what one
    # call per index returns; a scalar index returns numpy floats
    js = np.arange(1, 301)
    for d0, sigma in ((1.0, 0.99), (3.7, 0.5), (0.0, 0.0)):
        rho, eps = bound(d0, sigma, js)
        assert rho.shape == eps.shape == js.shape
        want = [bound(d0, sigma, j) for j in range(1, 301)]
        assert all(type(r) is type(e) is np.float64 for r, e in want)
        assert (rho.tolist(), eps.tolist()) == tuple(map(list, zip(*want)))
    assert [len(b) for b in bound(1.0, 0.5, js[:0])] == [0, 0]


def test_bounds_decay():
    pw = [pointwise_bound(3.0, 0.9, j) for j in (1, 4, 16, 64)]
    er = [ergodic_bound(3.0, 0.9, j) for j in (1, 4, 16, 64)]
    for seq in (pw, er):
        rhos = [r for r, _ in seq]
        epss = [e for _, e in seq]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert all(a > b for a, b in zip(epss, epss[1:]))
    # pointwise rho is O(1/sqrt j): quartering j halves the bound
    assert pw[1][0] == pytest.approx(pw[0][0] / 2.0, rel=1e-12)
    # ergodic rho is O(1/j)
    assert er[1][0] == pytest.approx(er[0][0] / 4.0, rel=1e-12)


def test_rate_domain_errors():
    # each argument outside its domain raises, NaN included, and so does
    # an array of j with one such entry; the edges d0 = 0 and sigma = 0
    # are inside it
    nan, inf = float("nan"), float("inf")
    for bound in (pointwise_bound, ergodic_bound):
        assert bound(0.0, 0.0, 1) == (0.0, 0.0)
        for d0, sigma, j, what in [
                (-1.0, 0.5, 1, "d0"), (nan, 0.5, 1, "d0"), (inf, 0.5, 1, "d0"),
                (1.0, 1.0, 1, "sigma"), (1.0, -0.1, 1, "sigma"),
                (1.0, nan, 1, "sigma"), (1.0, 0.5, 0, "j"),
                (1.0, 0.5, nan, "j"), (1.0, 0.5, np.array([1, 0, 3]), "j"),
                (1.0, 0.5, np.array([1.0, nan, 3.0]), "j")]:
            with pytest.raises(ValueError, match=f"^{what} must"):
                bound(d0, sigma, j)
