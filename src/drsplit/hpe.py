"""Hybrid proximal extragradient core.

Step certificates for the relative-error proximal condition and the
rate-envelope calculators (pointwise, ergodic, and linear under strong
monotonicity) used as oracles by the solver tests.  The ergodic averages
themselves are formed by drs.drs_ergodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple

import numpy as np

from .operators import slack

__all__ = [
    "HpeStepCertificate",
    "verify_hpe_inequality",
    "verify_hpe_rows",
    "RateEnvelope",
    "pointwise_bound",
    "ergodic_bound",
    "strong_rate",
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


@dataclass(frozen=True)
class RateEnvelope:
    """Constants entering the HPE complexity bounds.

    d0 is the distance from the start point to the solution set; it must
    come from a reference solve, never a silent estimate.  mu is the
    strong-monotonicity modulus (0 when absent).
    """

    d0: float
    lambda_min: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.d0 >= 0 and self.lambda_min > 0 and self.mu >= 0):
            raise ValueError("invalid envelope constants")
        if not 0 <= self.sigma < 1:
            raise ValueError("sigma must lie in [0, 1)")

    @property
    def alpha(self) -> float:
        """Linear-rate exponent base, defined for mu > 0; lies in (0, 1)."""
        if self.mu <= 0:
            raise ValueError("alpha requires mu > 0")
        return 1.0 / (1.0 / (2.0 * self.lambda_min * self.mu)
                      + 1.0 / (1.0 - self.sigma ** 2))


def pointwise_bound(env: RateEnvelope, j: int) -> tuple[float, float]:
    """Pointwise O(1/sqrt(j)) residual and O(1/j) eps bounds.

    Some index i <= j carries a residual v_i with
    ``||v_i|| <= rho_bound`` and eps_i with ``eps_i <= eps_bound``.
    """
    # written so that NaN fails, here and in the two bounds below
    if not j >= 1:
        raise ValueError("j must be >= 1")
    s = env.sigma
    rho = env.d0 / (env.lambda_min * np.sqrt(j)) * np.sqrt((1 + s) / (1 - s))
    eps = s ** 2 * env.d0 ** 2 / (2 * (1 - s ** 2) * env.lambda_min * j)
    return float(rho), float(eps)


def ergodic_bound(env: RateEnvelope, j: int) -> tuple[float, float]:
    """Ergodic O(1/j) bounds on ||vbar_j|| and ebar_j."""
    if not j >= 1:
        raise ValueError("j must be >= 1")
    s = env.sigma
    rho = 2.0 * env.d0 / (env.lambda_min * j)
    eps = 2.0 * (1 + s / np.sqrt(1 - s ** 2)) * env.d0 ** 2 / (env.lambda_min * j)
    return float(rho), float(eps)


def strong_rate(env: RateEnvelope, j: int) -> tuple[float, float]:
    """Linear-decay bounds under strong monotonicity (mu > 0)."""
    if not j >= 1:
        raise ValueError("j must be >= 1")
    s = env.sigma
    a = env.alpha
    v_bound = (np.sqrt((1 + s) / (1 - s))
               * (1 - a) ** ((j - 1) / 2.0) / env.lambda_min * env.d0)
    eps_bound = (s ** 2 / (2 * (1 - s ** 2))
                 * (1 - a) ** (j - 1) / env.lambda_min * env.d0 ** 2)
    return float(v_bound), float(eps_bound)
