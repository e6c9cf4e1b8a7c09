"""Monotone operator primitives.

Resolvent-based access to maximal monotone operators, concrete resolvents
for the cones used by the benchmark family (box normal cone, nullspace
normal cone of a sign row), Lipschitz and cocoercive forward maps, the
eps-enlargement triple together with its transportation (convex
combination) formula, and a sampling-based enlargement membership check.

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
    "resolvent_box",
    "project_nullspace",
    "cocoercive_enlargement",
    "transport_ergodic",
    "check_eps_membership",
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
    ``u in T(x)`` and ``gamma*u + x == z`` to round-off, and may expose
    ``sample_graph`` returning points of the operator's graph for
    sampling-based membership checks.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def resolvent(self, gamma: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def sample_graph(self, count: int, rng=None):
        raise NotImplementedError("operator does not expose a graph sampler")

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = _point(z)
        if z.shape != (self.dim,):
            raise ValueError(f"expected dimension {self.dim}, got {z.shape}")
        return z


def resolvent_box(gamma: float, z, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent of the normal cone of the box [lo, hi].

    The resolvent is the box projection at every scaling.  The normal-cone
    element is recovered as ``u = (z - x)/gamma``, so ``gamma*u + x = z``
    holds exactly; u is nonpositive on the lower faces and nonnegative on
    the upper ones.

    Parameters
    ----------
    gamma : float
        Resolvent scaling, > 0.
    z, lo, hi : array_like
        Input point and box bounds, ``lo <= hi`` componentwise.

    Returns
    -------
    x, u : ndarray
        Projection of z onto the box and the matching normal-cone element.
    """
    z = _point(z)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), z.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), z.shape)
    if np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")
    return _box_resolvent(gamma, z, lo, hi)


def project_nullspace(K, z) -> np.ndarray:
    """Project onto the nullspace of a single +/-1 row K: z - (K.z/n) K."""
    K = _point(K)
    z = _point(z)
    if K.shape != z.shape:
        raise ValueError("K and z must share a dimension")
    if not np.all(np.abs(K) == 1.0):
        raise ValueError("K entries must be +1 or -1")
    return _project_sign_row(K, z)


# The kernels behind both the module functions, which validate every
# argument per call, and the cone classes, which validate lo/hi/K once in
# their constructors and only the incoming point per resolvent.

def _box_resolvent(gamma, z, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = z.clip(lo, hi)
    return x, (z - x) / gamma


def _project_sign_row(K, z) -> np.ndarray:
    return z - (K @ z / K.size) * K


class BoxNormalCone(SplittableOperator):
    """Normal cone of the box [lo, hi] in R^n."""

    def __init__(self, lo, hi):
        lo = _point(lo)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), lo.shape).copy()
        super().__init__(lo.size)
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi

    def resolvent(self, gamma, z):
        return _box_resolvent(gamma, self._check_dim(z), self.lo, self.hi)

    def sample_graph(self, count, rng=None):
        # x uniform in the box; on a face, u is a scaled outward normal.
        rng = np.random.default_rng(0) if rng is None else rng
        n = self.dim
        face = rng.integers(0, 3, size=(count, n))  # 0 interior, 1 lower, 2 upper
        x = rng.uniform(self.lo, self.hi, size=(count, n))
        x = np.where(face == 1, self.lo, x)
        x = np.where(face == 2, self.hi, x)
        mag = rng.exponential(1.0, size=(count, n))
        v = np.where(face == 1, -mag, 0.0) + np.where(face == 2, mag, 0.0)
        return x, v


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

    def sample_graph(self, count, rng=None):
        # graph = M x M-perp: project Gaussians onto M, normals along K.
        rng = np.random.default_rng(0) if rng is None else rng
        n = self.dim
        Z = rng.standard_normal((count, n))
        Z = Z - np.outer(Z @ self.K / n, self.K)
        V = np.outer(rng.standard_normal(count), self.K)
        return Z, V


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

    def sample_graph(self, count, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        Z = 3.0 * rng.standard_normal((count, self.dim))
        return Z, Z @ self.W.T + self.c


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


def check_eps_membership(op, triple: EnlargementTriple, samples: int = 1000,
                         rng=None) -> bool:
    """Spot-check v in T^eps(z) against sampled graph points.

    True iff ``<z - z', v - v'> >= -eps`` holds (with round-off slack) on
    every sampled pair ``(z', v')`` of the operator's graph.  A necessary
    condition only, not a proof of membership.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    Zs, Vs = op.sample_graph(samples, rng)
    gaps = np.einsum("ij,ij->i", triple.z - Zs, triple.v - Vs)
    return bool(np.all(gaps >= -triple.eps - slack(triple.eps)))
