"""Hybrid proximal extragradient core.

Step certificates for the relative-error proximal condition and the
rate-envelope calculators (pointwise, ergodic, and linear under strong
monotonicity) used as oracles by the solver tests.  The ergodic averages
themselves are formed by drs.drs_ergodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Check the relative-error inequality to ``slack(rhs)``.

    The slack is 1e-10*(1 + rhs), so near convergence its floor decides;
    a non-finite rhs fails, since inf <= inf would certify nothing.  So
    does a certificate outside the HPE definition: eps < 0, lam <= 0 or
    sigma outside [0, 1), NaN included.
    """
    z_prev, z_tilde, v, eps, lam, sigma = cert
    if not (eps >= 0 and lam > 0 and 0 <= sigma < 1):
        return False
    d = lam * v + z_tilde - z_prev
    lhs = float(d.dot(d)) + 2.0 * lam * eps
    r = z_tilde - z_prev
    rhs = sigma ** 2 * float(r.dot(r))
    return math.isfinite(rhs) and lhs <= rhs + slack(rhs)


def verify_hpe_rows(Z_prev, Z_tilde, V, eps, lam: float,
                    sigma: float) -> np.ndarray:
    """verify_hpe_inequality on each row of a block of steps at one lam.

    Row i is the certificate (Z_prev[i], Z_tilde[i], V[i], eps[i], lam,
    sigma); returns the boolean verdict per row.  Element-wise it forms
    the same differences in the same order, with the same slack; each
    squared norm is a row sum, so it may differ from the scalar check's
    dot product in the last bits.
    """
    D = lam * V + Z_tilde - Z_prev
    lhs = np.einsum("ij,ij->i", D, D) + 2.0 * lam * eps
    R = Z_tilde - Z_prev
    rhs = sigma ** 2 * np.einsum("ij,ij->i", R, R)
    ok = np.isfinite(rhs) & (lhs <= rhs + slack(rhs)) & (eps >= 0)
    return ok & (lam > 0 and 0 <= sigma < 1)


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
