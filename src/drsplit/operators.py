"""Monotone operator primitives.

Resolvent-based access to maximal monotone operators, concrete resolvents
and exact eps-enlargement membership for the cones used by the benchmark
family (box normal cone, nullspace normal cone of a sign row), Lipschitz
and cocoercive forward maps, and the eps-enlargement triple together with
its transportation (convex combination) formula.

Everything lives in R^n with the standard Euclidean inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "EnlargementTriple",
    "SplittableOperator",
    "BoxNormalCone",
    "NullspaceNormalCone",
    "AffineMonotone",
    "LipschitzMap",
    "CocoerciveMap",
    "project_nullspace",
    "cocoercive_enlargement",
    "transport_ergodic",
    "slack",
]


def slack(magnitude: float) -> float:
    """Round-off tolerance: absolute 1e-10 plus relative 1e-10 * magnitude."""
    return 1e-10 * (1.0 + abs(magnitude))


def _point(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        z = np.atleast_1d(z.squeeze())
    if not np.isfinite(z).all():
        raise ValueError("point contains non-finite entries")
    return z


class EnlargementTriple(NamedTuple):
    """A point z, a candidate v in T^eps(z), and the enlargement level eps."""

    z: np.ndarray
    v: np.ndarray
    eps: float


class SplittableOperator:
    """Maximal monotone operator accessed through its resolvent.

    Subclasses implement ``resolvent(gamma, z) -> (x, u)`` with
    ``u in T(x)`` and ``gamma*u + x == z`` to round-off.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def resolvent(self, gamma: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = _point(z)
        if z.shape != (self.dim,):
            raise ValueError(f"expected dimension {self.dim}, got {z.shape}")
        return z


def project_nullspace(K, z) -> np.ndarray:
    """Project onto the nullspace of a single +/-1 row K: z - (K.z/n) K."""
    K = _point(K)
    z = _point(z)
    if K.shape != z.shape:
        raise ValueError("K and z must share a dimension")
    if not np.all(np.abs(K) == 1.0):
        raise ValueError("K entries must be +1 or -1")
    return _project_sign_row(K, z)


def _project_sign_row(K, z) -> np.ndarray:
    return z - (K @ z / K.size) * K


class BoxNormalCone(SplittableOperator):
    """Normal cone of the box [lo, hi] in R^n; resolvent is the box projection."""

    def __init__(self, lo, hi):
        lo = _point(lo)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), lo.shape).copy()
        super().__init__(lo.size)
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi

    def resolvent(self, gamma, z):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        x = z.clip(self.lo, self.hi)
        return x, (z - x) / gamma

    def contains(self, triple: EnlargementTriple) -> bool:
        """Exact test of v in N_X^eps(z), to round-off.

        True iff z lies in X = [lo, hi] and the support-function gap
        sigma_X(v) - <v, z> = sum_i v_i (hi_i - z_i if v_i > 0 else
        lo_i - z_i) is at most eps.  The gap of a resolvent output is 0.
        """
        z = self._check_dim(triple.z)
        v = self._check_dim(triple.v)
        if (np.any(z < self.lo - slack(self.lo))
                or np.any(z > self.hi + slack(self.hi))):
            return False
        terms = np.where(v > 0, v * (self.hi - z), v * (self.lo - z))
        return float(terms.sum()) <= triple.eps + slack(float(np.abs(terms).sum()))


class NullspaceNormalCone(SplittableOperator):
    """Normal cone of M = null(K) for a +/-1 row K; resolvent is P_M."""

    def __init__(self, K):
        K = _point(K)
        if not np.all(np.abs(K) == 1.0):
            raise ValueError("K entries must be +1 or -1")
        super().__init__(K.size)
        self.K = K

    def resolvent(self, gamma, z):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        x = _project_sign_row(self.K, z)
        return x, (z - x) / gamma

    def contains(self, triple: EnlargementTriple) -> bool:
        """Exact test of v in N_M^eps(z), to round-off.

        For z in M the enlargement is M-perp at every eps >= 0, so: True
        iff K.z = 0, v is parallel to K (sigma_M(v) = 0) and the gap
        -<v, z>, which is then 0, is at most eps.
        """
        z = self._check_dim(triple.z)
        v = self._check_dim(triple.v)
        in_M = abs(float(self.K @ z)) <= slack(float(np.abs(z).sum()))
        along_K = (np.abs(_project_sign_row(self.K, v)).max()
                   <= slack(float(np.abs(v).max())))
        return bool(in_M and along_K and -float(v @ z)
                    <= triple.eps + slack(float(np.abs(v) @ np.abs(z))))


class AffineMonotone(SplittableOperator):
    """Single-valued affine monotone operator z -> W z + c with W PSD."""

    def __init__(self, W, c=None):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        super().__init__(W.shape[0])
        if W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        if not np.allclose(W, W.T, atol=1e-12):
            raise ValueError("W must be symmetric")
        self.W = W
        self.c = np.zeros(self.dim) if c is None else self._check_dim(c)

    def __call__(self, z):
        return self.W @ self._check_dim(z) + self.c

    def resolvent(self, gamma, z):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        x = np.linalg.solve(np.eye(self.dim) + gamma * self.W, z - gamma * self.c)
        return x, (z - x) / gamma


@dataclass(frozen=True)
class LipschitzMap:
    """Monotone L-Lipschitz forward map with domain projector P_Omega."""

    eval: Callable[[np.ndarray], np.ndarray]
    L: float
    project_domain: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be >= 0")

    def project(self, z: np.ndarray) -> np.ndarray:
        return z if self.project_domain is None else self.project_domain(z)


@dataclass(frozen=True)
class CocoerciveMap:
    """eta-cocoercive forward map."""

    eval: Callable[[np.ndarray], np.ndarray]
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")


def _inverse_norm(w) -> float:
    # 1/||W|| from the ascending eigenvalues w of a symmetric W (the
    # cocoercivity modulus when W is PSD); inf for W = 0
    nrm = max(-float(w[0]), float(w[-1]))
    return float("inf") if nrm == 0.0 else 1.0 / nrm


def cocoercive_enlargement(F2: CocoerciveMap, z_eval, z_target) -> EnlargementTriple:
    """Enlargement triple for a cocoercive map evaluated off-target.

    Returns ``(z_target, F2(z_eval), ||z_eval - z_target||^2 / (4 eta))``;
    the value of F2 at z_eval belongs to the eps-enlargement of F2 at
    z_target with exactly that eps.
    """
    z_eval = _point(z_eval)
    z_target = _point(z_target)
    if z_eval.shape != z_target.shape:
        raise ValueError("dimension mismatch")
    v = _point(F2.eval(z_eval))
    eps = float(np.dot(z_eval - z_target, z_eval - z_target)) / (4.0 * F2.eta)
    return EnlargementTriple(z_target, v, eps)


def transport_ergodic(triples, weights) -> EnlargementTriple:
    """Convex combination of enlargement triples (transportation formula).

    Parameters
    ----------
    triples : sequence of EnlargementTriple
        Points (z_l, v_l, eps_l) with v_l in T^{eps_l}(z_l).
    weights : sequence of float
        Nonnegative, summing to 1 within 1e-12.

    Returns
    -------
    EnlargementTriple
        ``(zbar, vbar, ebar)`` with ``ebar = sum_l w_l (eps_l +
        <z_l - zbar, v_l - vbar>)``, guaranteed >= 0 up to round-off;
        vbar belongs to T^{ebar}(zbar).
    """
    triples = list(triples)
    if not triples:
        raise ValueError("empty triple list")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(triples),):
        raise ValueError("one weight per triple required")
    if np.any(w < -1e-12):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")

    Z = np.stack([t.z for t in triples])
    V = np.stack([t.v for t in triples])
    eps = np.array([t.eps for t in triples], dtype=float)
    zbar = w @ Z
    vbar = w @ V
    corr = np.einsum("ij,ij->i", Z - zbar, V - vbar)
    ebar = float(w @ (eps + corr))
    scale = float(w @ (np.abs(eps) + np.abs(corr)))
    if ebar < -slack(scale):
        raise InvariantViolation(f"transported eps is negative: {ebar}")
    return EnlargementTriple(zbar, vbar, max(ebar, 0.0))

