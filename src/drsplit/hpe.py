"""Hybrid proximal extragradient core.

Step certificates for the relative-error proximal condition and the
pointwise and ergodic complexity bounds, at the lam = 1 of the outer
embedding, which drs.envelope checks over a run.  drs reads the ergodic
averages from sums, ebar = (S_e - <S_z, S_v>/j)/j with S_e = sum (eps_l
+ <z_l, v_l>), over a whole run (drs_ergodic) or each prefix (envelope).
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

from .operators import slack

__all__ = [
    "HpeStepCertificate",
    "verify_hpe_inequality",
    "verify_hpe_rows",
    "pointwise_bound",
    "ergodic_bound",
]


class HpeStepCertificate(NamedTuple):
    """One inexact proximal step with its relative-error data.

    The certified inequality is
    ``||lam*v + z_tilde - z_prev||^2 + 2*lam*eps <= sigma^2 ||z_tilde - z_prev||^2``
    for some v in T^eps(z_tilde).
    """

    z_prev: np.ndarray
    z_tilde: np.ndarray
    v: np.ndarray
    eps: float
    lam: float
    sigma: float


def verify_hpe_inequality(cert: HpeStepCertificate) -> bool:
    """verify_hpe_rows on one certificate, as a bool; outside the HPE
    definition (eps < 0, lam not in (0, inf), sigma not in [0, 1)) False."""
    return bool(verify_hpe_rows(*cert))


def verify_hpe_rows(Z_prev, Z_tilde, V, eps, lam: float,
                    sigma: float) -> np.ndarray | bool:
    """Check the relative-error inequality to ``slack(rhs)``.

    Takes one certificate (1-D z_prev, z_tilde, v, a scalar eps; one
    verdict, squared norms by dot product) or a block at one lam and sigma
    (a certificate and an eps per row; a verdict per row, squared norms by
    row sums of one einsum).  The slack is 1e-10*(1 + rhs), so near
    convergence its floor decides; a non-finite rhs fails, since
    inf <= inf would certify nothing.  So does a certificate outside the
    HPE definition: eps < 0, lam not in (0, inf) or sigma not in [0, 1),
    NaN included.
    """
    if not (0 < lam < inf and 0 <= sigma < 1):
        return np.zeros(np.shape(eps), bool)
    D = lam * V + Z_tilde - Z_prev
    R = Z_tilde - Z_prev
    if D.ndim == 1:
        dd, rr = float(D.dot(D)), float(R.dot(R))
    else:
        dd, rr = np.einsum("ij,ij->i", D, D), np.einsum("ij,ij->i", R, R)
    lhs = dd + 2.0 * lam * eps
    rhs = sigma ** 2 * rr
    # rhs is >= 0 or NaN, so rhs < inf is its finiteness test
    return (rhs < inf) & (lhs <= rhs + slack(rhs)) & (eps >= 0)


def _check_bound_args(d0: float, sigma: float, j: int) -> None:
    # written so that NaN fails
    if not 0 <= d0 < inf:
        raise ValueError("d0 must be >= 0 and finite")
    if not 0 <= sigma < 1:
        raise ValueError("sigma must lie in [0, 1)")
    if not j >= 1:
        raise ValueError("j must be >= 1")


def pointwise_bound(d0: float, sigma: float, j: int) -> tuple[float, float]:
    """Pointwise O(1/sqrt(j)) residual and O(1/j) eps bounds.

    d0 is the distance from the start point to the zero set of the
    splitting operator (qp.nearest_zero reads it off a reference
    solution, never a silent estimate) and sigma the relative-error
    constant; the stepsize is the outer embedding's lam = 1.  Some index
    i <= j carries a residual v_i with ``||v_i|| <= rho_bound`` and eps_i
    with ``eps_i <= eps_bound``.
    """
    _check_bound_args(d0, sigma, j)
    rho = d0 / np.sqrt(j) * np.sqrt((1 + sigma) / (1 - sigma))
    eps = sigma ** 2 * d0 ** 2 / (2 * (1 - sigma ** 2) * j)
    return float(rho), float(eps)


def ergodic_bound(d0: float, sigma: float, j: int) -> tuple[float, float]:
    """Ergodic O(1/j) bounds on ||vbar_j|| and ebar_j, at lam = 1."""
    _check_bound_args(d0, sigma, j)
    rho = 2.0 * d0 / j
    eps = 2.0 * (1 + sigma / np.sqrt(1 - sigma ** 2)) * d0 ** 2 / j
    return float(rho), float(eps)
