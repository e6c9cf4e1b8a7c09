"""Monotone operator primitives.

Resolvent-based access to maximal monotone operators, concrete resolvents
for the cones used by the benchmark family (box normal cone, nullspace
normal cone of a sign row), and Lipschitz and cocoercive forward maps.
The eps-enlargement triple, the cones' membership tests and the
enlargement of a cocoercive map evaluated off-target have no solver
caller; they live with the test oracles.  The cones validate their data
once, when built, and each resolvent checks only the incoming point.

Everything lives in R^n with the standard Euclidean inner product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SplittableOperator",
    "BoxNormalCone",
    "NullspaceNormalCone",
    "LipschitzMap",
    "CocoerciveMap",
    "AffineCocoerciveMap",
    "project_nullspace",
    "slack",
]


def slack(magnitude: float) -> float:
    """Round-off tolerance: absolute 1e-10 plus relative 1e-10 * magnitude."""
    return 1e-10 * (1.0 + abs(magnitude))


def _integral(value) -> bool:
    """An int or any numbers.Integral; type() first, as isinstance is slow."""
    return type(value) is int or isinstance(value, numbers.Integral)


def _norm(a) -> float:
    # the Euclidean length of a vector; bitwise numpy.linalg.norm on a
    # contiguous one, and like it warns when the square overflows
    return math.sqrt(float(a.dot(a)))


def _quiet_norm(a) -> float:
    # _norm by np.vdot, which does not warn when the square overflows
    return math.sqrt(np.vdot(a, a))


def _clip(z, lo, hi) -> np.ndarray:
    # bitwise equal to numpy.clip(z, lo, hi), without its Python wrapper
    return np.minimum(np.maximum(z, lo), hi)


def _point(z, n=None, name="point") -> np.ndarray:
    # the package's one check of a caller's vector: 1-D, of length n when
    # n is given, and finite; each ValueError names the argument
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {z.shape}")
    if n is not None and z.size != n:
        raise ValueError(f"{name} must have length {n}")
    # a finite squared norm proves every entry finite; a NaN or inf entry
    # makes it non-finite, and so does overflow, which the exact test
    # clears (vdot, unlike dot, does not warn on that overflow)
    if not math.isfinite(np.vdot(z, z)) and not np.isfinite(z).all():
        raise ValueError(f"{name} contains non-finite entries")
    return z


class SplittableOperator:
    """Maximal monotone operator accessed through its resolvent.

    Subclasses implement ``resolvent(gamma, z) -> x``, the point
    ``x = (I + gamma*T)^{-1} z``; a ``gamma`` that is not ``> 0``, NaN
    included, and a ``z`` that fails the point rule raise ValueError.  A
    caller that needs the graph element ``u in T(x)`` takes
    ``u = (z - x)/gamma``.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def resolvent(self, gamma: float, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        return _point(z, self.dim)


class BoxNormalCone(SplittableOperator):
    """Normal cone of the box [lo, hi] in R^n; resolvent is the box projection.

    hi must have lo's length (it is not broadcast) and lo <= hi.
    """

    def __init__(self, lo, hi):
        lo = _point(lo, name="lo").copy()
        hi = _point(hi, lo.size, "hi").copy()
        super().__init__(lo.size)
        # NaN fails lo <= hi, where it would pass a lo > hi test
        if not np.all(lo <= hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi

    def resolvent(self, gamma, z, *, trusted=False):
        """Project z onto the box.

        trusted=True skips the checks of gamma and z: the caller vouches
        that gamma > 0 and that z is a finite float array of shape (n,).
        The projection, and so the result, is the same bit for bit.
        """
        if not trusted:
            if not gamma > 0:
                raise ValueError("gamma must be positive")
            z = self._check_dim(z)
        return _clip(z, self.lo, self.hi)


class NullspaceNormalCone(SplittableOperator):
    """Normal cone of M = null(K) for a +/-1 row K; resolvent is P_M."""

    def __init__(self, K):
        K = _point(K, name="K").copy()
        if not np.all(np.abs(K) == 1.0):
            raise ValueError("K entries must be +1 or -1")
        super().__init__(K.size)
        self.K = K

    def resolvent(self, gamma, z):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        return z - (self.K.dot(z) / self.K.size) * self.K


# perfbench's --trace 1 span list looks this up by name: keep it here
def project_nullspace(K, z) -> np.ndarray:
    """Project onto the nullspace of a single +/-1 row K: z - (K.z/n) K."""
    return NullspaceNormalCone(K).resolvent(1.0, z)


@dataclass(frozen=True)
class LipschitzMap:
    """Monotone L-Lipschitz forward map with domain projector P_Omega."""

    eval: Callable[[np.ndarray], np.ndarray]
    L: float
    project_domain: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.L >= 0:
            raise ValueError("L must be >= 0")

    def project(self, z: np.ndarray) -> np.ndarray:
        return z if self.project_domain is None else self.project_domain(z)


@dataclass(frozen=True)
class CocoerciveMap:
    """eta-cocoercive forward map."""

    eval: Callable[[np.ndarray], np.ndarray]
    eta: float

    def __post_init__(self):
        # eta = inf (F2 = 0) is admitted; NaN fails
        if not self.eta > 0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True, eq=False, kw_only=True)
class AffineCocoerciveMap(CocoerciveMap):
    """eta-cocoercive affine map z -> Q z + e.

    (Q, e) is the map's one source: eval is built from it, so a step that
    reads Q and e directly and one that calls eval evaluate the same map.
    Both must be finite.  The caller vouches for eta, as for any
    CocoerciveMap (1/||Q|| for a symmetric PSD Q).  The cones copy the
    data they check; the map shares Q and e (a copy is 80 KB at n=100).
    """

    eval: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    Q: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        e = _point(self.e, name="e")
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (e.size, e.size):
            raise ValueError(f"Q must be n x n for e of length n = {e.size}, "
                             f"got {Q.shape}")
        if not np.isfinite(Q).all():
            raise ValueError("Q contains non-finite entries")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "eval", lambda z: Q.dot(z) + e)
        super().__post_init__()


def _check_symmetric(W: np.ndarray, name: str) -> None:
    # absolute test scaled by the largest entry, with no per-entry rtol;
    # a NaN entry fails it
    asym = float(np.abs(W - W.T).max(initial=0.0))
    tol = 1e-12 * float(np.abs(W).max(initial=0.0))
    if not asym <= tol:
        raise ValueError(f"{name} must be symmetric to 1e-12*max|{name}| = "
                         f"{tol:.3g}; max|{name} - {name}^T| = {asym:.3g}")


def _inverse_norm(w) -> float:
    # 1/||W|| from the ascending eigenvalues w of a symmetric W (the
    # cocoercivity modulus when W is PSD); inf for W = 0
    nrm = max(-float(w[0]), float(w[-1]))
    return float("inf") if nrm == 0.0 else 1.0 / nrm
