"""Constrained-QP benchmark family and its solution oracles.

Instances minimize 0.5 <Qz, z> + <e, z> subject to Kz = 0 and
z in X = [lo, hi], with Q symmetric positive semidefinite and K a single
+/-1 row.  The box X = [0, 10]^n with e the all-ones vector is the family
``generate_instance`` draws, not a limit of ``QpInstance``.
The operator decomposition used by the solvers is A = N_M (M = null(K)),
C = N_X, no F1 (``F1=None``: there is no Lipschitz term) and
F2(z) = Qz + e with eta = 1/||Q||.  Spectral constants are exact: each
instance runs one eigvalsh(Q) when it is built, which both checks Q for
positive semidefiniteness and fixes eta.  The instance also builds that
operator set once (``inst.ops``; its cones reject a K outside
{+1, -1}^n and an empty box, and the instance rejects a box with no
point on Kz = 0): ``qp_operators`` returns it, and the drt solver, both
baselines and the iterative oracles all step with it.

Oracles: KKT active-set enumeration for n <= 6, a high-accuracy
three-operator fixed-point reference for larger n (it runs the TOS step
of ``baselines.tos_iterate`` to a 1e-12 fixed point), an exact-resolvent
Douglas-Rachford reference for the splitting operator's zero set, and a
box-constrained QP solver used for exact resolvents of C + F2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .baselines import estimate_beta_V, tos_iterate
from .errors import OracleFailure
from .operators import (AffineCocoerciveMap, BoxNormalCone, LipschitzMap,
                        NullspaceNormalCone, SplittableOperator,
                        _check_symmetric, _inverse_norm, slack)

__all__ = [
    "QpInstance",
    "QpOperators",
    "generate_instance",
    "qp_operators",
    "estimate_eta",
    "estimate_beta_V",
    "reference_solution",
    "kkt_check",
    "objective",
    "box_qp_solve",
    "box_solution",
    "BoxAffineSum",
    "drs_reference_zero",
    "tau0_default",
]


@dataclass(frozen=True)
class QpInstance:
    Q: np.ndarray
    e: np.ndarray
    K: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    definite: bool
    seed: int
    eta: float = field(init=False, compare=False)   # 1/||Q||, inf for Q = 0
    ops: QpOperators = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.Q.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError("Q must be square")
        for name in ("e", "K", "lo", "hi"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        _check_symmetric(self.Q, "Q")
        A = NullspaceNormalCone(self.K)
        C = BoxNormalCone(self.lo, self.hi)
        # K is +/-1, so K.z ranges over K.(lo + hi)/2 +/- sum(hi - lo)/2 on
        # the box: Kz = 0 meets the box iff |K.(lo + hi)| <= sum(hi - lo)
        span = float((self.hi - self.lo).sum())
        if abs(float(self.K.dot(self.lo + self.hi))) > span + slack(span):
            raise ValueError("no point of the box [lo, hi] satisfies Kz = 0")
        w = np.linalg.eigvalsh(self.Q)
        if w[0] < -1e-10:
            raise ValueError(f"Q has eigenvalue {w[0]} < -1e-10")
        eta = _inverse_norm(w)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "ops", QpOperators(
            A=A, C=C, F1=None,
            F2=AffineCocoerciveMap(Q=self.Q, e=self.e, eta=eta), eta=eta))

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class QpOperators:
    A: NullspaceNormalCone
    C: BoxNormalCone
    F1: LipschitzMap | None     # None: the family has no Lipschitz term
    F2: AffineCocoerciveMap     # Q z + e, built from the instance's Q and e
    eta: float


def generate_instance(n: int, definite: bool, seed: int) -> QpInstance:
    """Seeded random instance: Q = M^T M / n (+ I when definite).

    M is n x n for definite instances and ceil(n/2) x n for semidefinite
    ones (so rank(Q) <= ceil(n/2)); K is an i.i.d. +/-1 row.  Bitwise
    deterministic for a fixed seed (M is drawn before K).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    rows = n if definite else (n + 1) // 2
    M = rng.standard_normal((rows, n))
    Q = M.T @ M / n
    if definite:
        Q = Q + np.eye(n)
    Q = (Q + Q.T) / 2.0
    K = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return QpInstance(Q=Q, e=np.ones(n), K=K, lo=np.zeros(n),
                      hi=10.0 * np.ones(n), definite=bool(definite),
                      seed=int(seed))


def estimate_eta(Q) -> float:
    """Reciprocal spectral norm of symmetric Q; inf for the zero map."""
    return _inverse_norm(np.linalg.eigvalsh(np.asarray(Q, dtype=float)))


def qp_operators(inst: QpInstance) -> QpOperators:
    """The instance's operator set; rejects an unbounded eta (Q = 0)."""
    if not np.isfinite(inst.eta):
        raise ValueError("zero quadratic term: eta is unbounded")
    return inst.ops


def objective(inst: QpInstance, z) -> float:
    z = np.asarray(z, dtype=float)
    return float(0.5 * z @ inst.Q @ z + inst.e @ z)


def kkt_check(inst: QpInstance, z, tol: float = 1e-8) -> bool:
    """Feasibility plus stationarity of z for the instance, to tolerance.

    A point with a non-finite entry fails.  Stationarity requires a
    scalar multiplier lam with -(Qz + e + lam*K^T) in N_X(z): with
    w = Qz + e, each coordinate bounds t_i = lam*K_i to an interval,
    [-w_i - tol, inf) at its lower bound, (-inf, -w_i + tol] at its upper
    bound and [-w_i - tol, -w_i + tol] in between, and the test
    intersects the intervals mapped to lam.  A coordinate within tol of
    both bounds (fixed, lo_i == hi_i) has N = R there and puts no
    constraint on lam.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        return False
    if np.any(z < inst.lo - tol) or np.any(z > inst.hi + tol):
        return False
    if abs(float(inst.K @ z)) > tol * (1.0 + float(np.linalg.norm(z))):
        return False
    w = inst.Q @ z + inst.e
    at_lo = z <= inst.lo + tol
    at_hi = z >= inst.hi - tol
    t_lo = np.where(at_hi, -np.inf, -w - tol)
    t_hi = np.where(at_lo, np.inf, -w + tol)
    pos = inst.K > 0                        # K is +/-1: negation is exact
    lower = np.where(pos, t_lo, -t_hi)
    upper = np.where(pos, t_hi, -t_lo)
    return bool(lower.max() <= upper.min())


def _kkt_enumerate(inst: QpInstance) -> np.ndarray:
    # 3^n active-set patterns: each coordinate at lo, free, or at hi
    n = inst.n
    best = None
    best_obj = np.inf
    best_nrm = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pat = np.asarray(pattern)
        fidx = np.flatnonzero(pat == 1)
        z = np.where(pat == 0, inst.lo, inst.hi)
        nf = fidx.size
        if nf:
            gidx = np.flatnonzero(pat != 1)
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = inst.Q[np.ix_(fidx, fidx)]
            A[:nf, nf] = inst.K[fidx]
            A[nf, :nf] = inst.K[fidx]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = -inst.e[fidx]
            if gidx.size:
                rhs[:nf] -= inst.Q[np.ix_(fidx, gidx)] @ z[gidx]
                rhs[nf] = -float(inst.K[gidx] @ z[gidx])
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            z = z.astype(float)
            z[fidx] = sol[:nf]
        if not np.all(np.isfinite(z)):
            continue
        if not kkt_check(inst, z):
            continue
        zc = np.clip(z, inst.lo, inst.hi)
        obj = objective(inst, zc)
        nrm = float(np.linalg.norm(zc))
        cmp_tol = 1e-10 * (1.0 + abs(obj))
        if best is None or obj < best_obj - cmp_tol or \
                (obj < best_obj + cmp_tol and nrm < best_nrm):
            best, best_obj, best_nrm = zc, obj, nrm
    if best is None:
        raise OracleFailure("no active-set pattern satisfied the KKT system")
    return best


def _tos_reference(inst: QpInstance) -> np.ndarray:
    beta = inst.eta if np.isfinite(inst.eta) else 1.0
    gamma = 1.99 * beta
    z = np.zeros(inst.n)
    try:
        for _ in range(10 ** 6):
            z_new = tos_iterate(z, inst, gamma)
            if float(np.linalg.norm(z_new - z)) <= 1e-12:
                z = z_new
                break
            z = z_new
        else:
            raise OracleFailure("reference fixed-point iteration hit its cap")
    except ValueError as exc:
        raise OracleFailure(f"reference fixed-point iteration: {exc}") from exc
    x = inst.ops.C.resolvent(gamma, z)
    if not kkt_check(inst, x, 1e-8):
        raise OracleFailure("reference iterate failed the KKT check")
    return x


def reference_solution(inst: QpInstance) -> np.ndarray:
    """Verified optimizer: KKT enumeration (n <= 6) or iterative reference.

    Enumeration covers all 3^n box patterns with the equality multiplier,
    verifies each candidate, and breaks objective ties by minimal norm.
    """
    if inst.n <= 6:
        return _kkt_enumerate(inst)
    return _tos_reference(inst)


def box_qp_solve(H, c, lo, hi, max_iter: int = 100000,
                 lip: float | None = None) -> np.ndarray:
    """Minimize 0.5 x^T H x - c^T x over the box by projected gradient.

    H must be symmetric positive definite for the linear rate this relies
    on; stops when the successive change drops to 1e-13 (fixed-point
    residual of the projected-gradient map).
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    if lip is None:
        lip = float(np.linalg.norm(H, 2))
    step = 1.0 / lip
    x = np.clip(np.zeros_like(c), lo, hi)
    for _ in range(max_iter):
        x_new = np.clip(x - step * (H @ x - c), lo, hi)
        if float(np.linalg.norm(x_new - x)) <= 1e-13:
            return x_new
        x = x_new
    raise OracleFailure("box QP projected gradient hit its cap")


def box_solution(inst: QpInstance) -> np.ndarray:
    """Minimizer of the objective over the box alone (equality dropped)."""
    return box_qp_solve(inst.Q, -inst.e, inst.lo, inst.hi)


class BoxAffineSum(SplittableOperator):
    """Operator N_X + (Q . + e); resolvent via an inner box-QP solve.

    The resolvent at gamma solves the strongly convex box QP with
    H = I + gamma*Q, c = z - gamma*e to high accuracy.
    """

    def __init__(self, Q, e, lo, hi):
        Q = np.asarray(Q, dtype=float)
        super().__init__(Q.shape[0])
        self.Q = Q
        self.e = np.asarray(e, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self._qnorm = 1.0 / estimate_eta(Q)

    def resolvent(self, gamma, z):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        H = np.eye(self.dim) + gamma * self.Q
        return box_qp_solve(H, z - gamma * self.e, self.lo, self.hi,
                            lip=1.0 + gamma * self._qnorm)


def drs_reference_zero(inst: QpInstance, gamma: float, z0):
    """Exact-resolvent Douglas-Rachford run to a zero of the splitting operator.

    Returns (z_inf, d0_gamma) where d0_gamma = ||z0 - z_inf|| upper-bounds
    the distance from z0 to the limit actually reached; the limit is a
    fixed point (successive change <= 1e-12), hence a zero of the
    splitting operator to that accuracy.
    """
    z0 = np.asarray(z0, dtype=float)
    Jb = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    z = z0.copy()
    for _ in range(10 ** 6):
        x = Jb.resolvent(gamma, z)
        y = inst.ops.A.resolvent(gamma, 2.0 * x - z)
        z_new = z + (y - x)
        if float(np.linalg.norm(z_new - z)) <= 1e-12:
            z = z_new
            break
        z = z_new
    else:
        raise OracleFailure("exact-resolvent reference hit its cap")
    return z, float(np.linalg.norm(z0 - z))


def tau0_default(inst: QpInstance, z0) -> float:
    """Initial inner tolerance tau0 = ||z0 - P_X(z0) + Q z0||^3 + 1.

    The linear term e of the forward map does not enter.
    """
    z0 = np.asarray(z0, dtype=float)
    r = z0 - np.clip(z0, inst.lo, inst.hi) + inst.Q @ z0
    return float(np.linalg.norm(r)) ** 3 + 1.0
