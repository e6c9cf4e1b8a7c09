"""Constrained-QP benchmark family and its solution oracles.

Instances minimize 0.5 <Qz, z> + <e, z> subject to Kz = 0 and
z in X = [lo, hi], with Q symmetric positive semidefinite and K a single
+/-1 row.  Two seeded families draw the same Q and K: the paper family
(``generate_instance``: e the all-ones vector and X = [0, 10]^n, so its
unique optimum is the origin) and the faces family (``faces_instance``:
e uniform in [-10, 10] and X = [-5, 5]^n, so its optimum lies on faces
of the box and inside it).  Neither is a limit of ``QpInstance``.
The operator decomposition used by the solvers is A = N_M (M = null(K)),
C = N_X, no F1 (``F1=None``: there is no Lipschitz term) and
F2(z) = Qz + e with eta = 1/||Q||.  Spectral constants are exact: each
instance runs one eigvalsh(Q) when it is built, which both checks Q for
positive semidefiniteness and fixes eta, which ``inst.F2`` stores.  The
instance is that operator set, built once (its cones reject a K outside
{+1, -1}^n and an empty box, and the instance rejects a box with no
point on Kz = 0): the drt solver, both baselines and the iterative
oracle all step with ``inst.A``, ``inst.C`` and ``inst.F2``.

Oracles: KKT active-set enumeration for n <= 6 and, for larger n, the
baselines' TOS loop run to a 1e-4 fixed point and polished by one solve
of the KKT system on its active set (the enumeration's per-pattern
solve), with a 1e-12 TOS tail where the polish fails its check; the
benchmark's ``abs_err`` column reads them through
``reference_solution``.  At a solution, ``nearest_zero`` reads the zero
set of drt's splitting operator off kkt_check's multiplier interval, and
with it the distance d0 that the paper's bounds take.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# re-exported: perfbench's every-run span list looks up qp.estimate_beta_V
from .baselines import _fixed_point, estimate_beta_V, tos_iterate
from .drs import DrsConfig
from .drt import DrtProblem
from .errors import ContractViolation, IterationBudgetExceeded, OracleFailure
from .operators import (AffineCocoerciveMap, BoxNormalCone,
                        NullspaceNormalCone, _check_symmetric, _clip,
                        _inverse_norm, _norm, _point, slack)
from .tseng import gamma_max

__all__ = [
    "QpInstance",
    "generate_instance",
    "faces_instance",
    "qp_operators",
    "drt_problem",
    "estimate_eta",
    "estimate_beta_V",
    "reference_solution",
    "kkt_check",
    "nearest_zero",
    "objective",
    "tau0_default",
]


@dataclass(frozen=True)
class QpInstance:
    """One QP of the family, and its own operator set, built once.

    Q, e, K, lo and hi are read as float arrays (lists included).  Q must
    be a square matrix, symmetric to 1e-12*max|Q| with no per-entry
    slack, and positive semidefinite to -1e-10: one eigvalsh(Q) checks
    that and fixes eta = 1/||Q|| (inf for Q = 0).  e, K, lo and hi go
    through the point rule at length n.  A = NullspaceNormalCone(K) and
    C = BoxNormalCone(lo, hi) copy and check their data (K in {+1, -1}^n,
    lo <= hi); F2 = AffineCocoerciveMap(Q, e) shares Q and e, and
    inst.eta reads F2.eta.  A box with no point on Kz = 0, |K.(lo + hi)|
    > sum(hi - lo), raises ValueError (an O(n) test).
    """

    Q: np.ndarray
    e: np.ndarray
    K: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    definite: bool
    seed: int
    A: NullspaceNormalCone = field(init=False, compare=False, repr=False)
    C: BoxNormalCone = field(init=False, compare=False, repr=False)
    F2: AffineCocoerciveMap = field(init=False, compare=False, repr=False)
    F1 = None                   # the family has no Lipschitz term

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        object.__setattr__(self, "Q", Q)
        for name in ("e", "K", "lo", "hi"):
            object.__setattr__(self, name,
                               _point(getattr(self, name), Q.shape[0], name))
        _check_symmetric(self.Q, "Q")
        object.__setattr__(self, "A", NullspaceNormalCone(self.K))
        object.__setattr__(self, "C", BoxNormalCone(self.lo, self.hi))
        # K is +/-1, so K.z ranges over K.(lo + hi)/2 +/- sum(hi - lo)/2 on
        # the box: Kz = 0 meets the box iff |K.(lo + hi)| <= sum(hi - lo)
        span = float((self.hi - self.lo).sum())
        if abs(float(self.K.dot(self.lo + self.hi))) > span + slack(span):
            raise ValueError("no point of the box [lo, hi] satisfies Kz = 0")
        w = np.linalg.eigvalsh(self.Q)
        if w[0] < -1e-10:
            raise ValueError(f"Q has eigenvalue {w[0]} < -1e-10")
        object.__setattr__(self, "F2", AffineCocoerciveMap(
            Q=self.Q, e=self.e, eta=_inverse_norm(w)))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def eta(self) -> float:
        """1/||Q||, inf for Q = 0: the forward map's own constant."""
        return self.F2.eta


def _draw_curvature(n: int, definite: bool, seed: int):
    # Q = M^T M / n (+ I when definite) and an i.i.d. +/-1 row K, M drawn
    # before K from default_rng(seed)
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
    return Q, K


def generate_instance(n: int, definite: bool, seed: int) -> QpInstance:
    """The paper family: Q = M^T M / n (+ I when definite), e = 1, [0, 10].

    M is n x n for definite instances and ceil(n/2) x n for semidefinite
    ones (so rank(Q) <= ceil(n/2)); K is an i.i.d. +/-1 row.  Bitwise
    deterministic for a fixed seed (M is drawn before K).
    """
    Q, K = _draw_curvature(n, definite, seed)
    return QpInstance(Q=Q, e=np.ones(n), K=K, lo=np.zeros(n),
                      hi=10.0 * np.ones(n), definite=bool(definite),
                      seed=int(seed))


def faces_instance(n: int, definite: bool, seed: int) -> QpInstance:
    """The faces family: Q, K as generate_instance; e ~ U(-10, 10); [-5, 5].

    After the OSQP random box-QP generators (Stellato et al., arXiv
    1711.08013): e is drawn from default_rng([7, seed]), and the optimum
    has coordinates on the faces of the box and strictly inside it.
    """
    Q, K = _draw_curvature(n, definite, seed)
    e = np.random.default_rng([7, seed]).uniform(-10.0, 10.0, n)
    return QpInstance(Q=Q, e=e, K=K, lo=np.full(n, -5.0),
                      hi=np.full(n, 5.0), definite=bool(definite),
                      seed=int(seed))


# perfbench's every-run span list looks this up by name: keep it here
def estimate_eta(Q) -> float:
    """Reciprocal spectral norm of symmetric Q; inf for the zero map."""
    return _inverse_norm(np.linalg.eigvalsh(np.asarray(Q, dtype=float)))


def qp_operators(inst: QpInstance) -> QpInstance:
    """The instance, its own operator set; rejects an unbounded eta (Q = 0)."""
    if not np.isfinite(inst.eta):
        raise ValueError("zero quadratic term: eta is unbounded")
    return inst


def drt_problem(inst: QpInstance, z0, *, tol: float, sigma: float = 0.99,
                theta: float = 0.01) -> DrtProblem:
    """drt on the instance from z0: gamma = gamma_max(eta, 0, sigma) (no F1),
    tau0 = tau0_default(inst, z0) and rho_tol = eps_tol = tol.  z0 must
    be a finite point of R^n.  sigma and theta default to the benchmark's
    values.  gamma = 2*sigma^2/||Q|| and both stop rules read
    gamma*||a+b||, so a small sigma stops far from the optimum: on the
    paper family at n=20, sigma=1e-4 stops with x 19 to 26 away from it,
    sigma=0.01 reaches max_iter and sigma=0.1 converges.  A tiny ||Q||
    puts the zeros x* - gamma*lam*K about gamma*|lam| away: on
    faces_instance(1, False, 7), gamma = 1.3e6 and drt_solve hits max_iter.
    That typed budget error is the outcome there, not a wrong answer, and
    tests/test_sweep.py accepts it only where gamma*||e|| > 1e4*||hi - lo||."""
    qp_operators(inst)                  # rejects Q = 0
    tau0 = tau0_default(inst, z0)
    cfg = DrsConfig(float(gamma_max(inst.eta, 0.0, sigma)), sigma, theta,
                    tau0=tau0, rho_tol=tol, eps_tol=tol)
    return DrtProblem(inst.A, inst.C, inst.F1, inst.F2, cfg)


def objective(inst: QpInstance, z) -> float:
    z = _point(z, inst.n, "z")
    return float(0.5 * z @ inst.Q @ z + inst.e @ z)


def kkt_check(inst: QpInstance, z, tol: float = 1e-8) -> bool:
    """Feasibility plus stationarity of z for the instance, to tolerance.

    A point with a non-finite entry fails; one of another shape than (n,)
    raises ValueError.  Stationarity requires a scalar multiplier lam with
    -(Qz + e + lam*K^T) in N_X(z): with w = Qz + e, each coordinate bounds
    t_i = lam*K_i to an interval, [-w_i - tol, inf) at its lower bound,
    (-inf, -w_i + tol] at its upper bound and [-w_i - tol, -w_i + tol] in
    between, and the test intersects the intervals mapped to lam.  A
    coordinate within tol of both bounds (fixed, lo_i == hi_i) has N = R
    there and puts no constraint on lam.  It reads the raw arrays, not the
    instance's operators, so it checks the solvers independently.  A tol
    outside (0, inf), NaN included, raises ValueError.
    """
    # written so that NaN fails: tol = inf certifies any feasible point
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    # contiguous, so that _norm(z) has numpy.linalg.norm's bits on a view too
    z = np.asarray(z, dtype=float, order="C")
    if not np.isfinite(z).all():
        return False
    z = _point(z, inst.n, "z")
    if np.any(z < inst.lo - tol) or np.any(z > inst.hi + tol):
        return False
    if abs(float(inst.K @ z)) > tol * (1.0 + _norm(z)):
        return False
    lower, upper = _multiplier_interval(inst, z, tol)
    return lower <= upper


def _multiplier_interval(inst: QpInstance, z: np.ndarray,
                         tol: float) -> tuple[float, float]:
    # the lam with -(Qz + e + lam*K^T) in N_X(z) to tol, as (lower, upper):
    # empty when lower > upper, unbounded on a side no coordinate bounds
    w = inst.Q @ z + inst.e
    at_lo = z <= inst.lo + tol
    at_hi = z >= inst.hi - tol
    t_lo = np.where(at_hi, -np.inf, -w - tol)
    t_hi = np.where(at_lo, np.inf, -w + tol)
    pos = inst.K > 0                        # K is +/-1: negation is exact
    lower = np.where(pos, t_lo, -t_hi)
    upper = np.where(pos, t_hi, -t_lo)
    return float(lower.max()), float(upper.min())


def nearest_zero(inst: QpInstance, x_star, gamma: float,
                 z0) -> tuple[np.ndarray, float]:
    """The zero of drt's splitting operator nearest z0 on x_star's segment.

    At a solution x_star the zeros are z = x_star - gamma*lam*K, lam in
    the multiplier interval of kkt_check at 1e-8, the loosest tolerance
    that reference_solution verifies to; that segment is the whole zero set
    when x_star is the unique solution (Q definite) and a part of it
    otherwise.  Returns (z, ||z0 - z||) in O(n) after one
    product Q x_star: the distance d0 that the paper's bounds take, and an
    upper bound on it when the solution is not unique.  x_star and z0 go
    through the point rule; an x_star with an empty interval raises
    ValueError.
    """
    x_star = _point(x_star, inst.n, "x_star")
    z0 = _point(z0, inst.n, "z0")
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    lower, upper = _multiplier_interval(inst, x_star, 1e-8)
    if not lower <= upper:
        raise ValueError(f"x_star has no multiplier to 1e-8: "
                         f"[{lower!r}, {upper!r}] is empty")
    # ||z0 - x_star + gamma*lam*K||^2 is a parabola in lam: its vertex,
    # moved into the interval
    lam = -float(inst.K.dot(z0 - x_star)) / (gamma * float(inst.K.dot(inst.K)))
    lam = min(max(lam, lower), upper)
    z = x_star - (gamma * lam) * inst.K
    return z, _norm(z0 - z)


def _solve_pattern(inst: QpInstance, at_lo: np.ndarray,
                   at_hi: np.ndarray) -> tuple[np.ndarray, float]:
    # one active-set pattern's KKT point (z, lam): coordinates at_lo (else
    # at_hi) fixed at that bound, the rest from the bordered system
    # [[Q_FF, K_F], [K_F', 0]] by lstsq; lam is nan when none is free
    bound = at_lo | at_hi
    fidx = np.flatnonzero(~bound)
    z = np.where(at_lo, inst.lo, inst.hi)
    nf = fidx.size
    if not nf:
        return z, np.nan
    gidx = np.flatnonzero(bound)
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
    z[fidx] = sol[:nf]
    return z, float(sol[nf])


def _kkt_enumerate(inst: QpInstance) -> np.ndarray:
    # 3^n active-set patterns: each coordinate at lo, free, or at hi
    best = None
    best_obj = np.inf
    best_nrm = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=inst.n):
        pat = np.asarray(pattern)
        z, _ = _solve_pattern(inst, pat == 0, pat == 2)
        if not kkt_check(inst, z):       # False on a non-finite z, too
            continue
        zc = _clip(z, inst.lo, inst.hi)
        obj = objective(inst, zc)
        nrm = _norm(zc)
        cmp_tol = 1e-10 * (1.0 + abs(obj))
        if best is None or obj < best_obj - cmp_tol or \
                (obj < best_obj + cmp_tol and nrm < best_nrm):
            best, best_obj, best_nrm = zc, obj, nrm
    if best is None:
        raise OracleFailure("no active-set pattern satisfied the KKT system")
    return best


def _tos_reference(inst: QpInstance) -> np.ndarray:
    # one TOS run from 0 with a checked shortcut at 1e-4 (reference_solution)
    beta = inst.eta if np.isfinite(inst.eta) else 1.0
    gamma = 1.99 * beta
    try:
        z, k, resid = _fixed_point(tos_iterate, np.zeros(inst.n), inst,
                                   gamma, 1e-4, 10 ** 6, "tos")
        x = inst.C.resolvent(gamma, z)
        if kkt_check(inst, x, 1e-10):
            return x
        guess, _ = _solve_pattern(inst, x <= inst.lo + 1e-6,
                                  x >= inst.hi - 1e-6)
        polished = _clip(guess, inst.lo, inst.hi)
        if kkt_check(inst, polished, 1e-10):
            return polished
        if resid > 1e-12:           # else the 1e-12 run ends here too
            z, _, _ = _fixed_point(tos_iterate, z, inst, gamma, 1e-12,
                                   10 ** 6 - k, "tos")
            x = inst.C.resolvent(gamma, z)
    except (ContractViolation, IterationBudgetExceeded) as exc:
        raise OracleFailure(f"reference fixed-point iteration: {exc}") from exc
    if not kkt_check(inst, x, 1e-8):
        raise OracleFailure("reference iterate failed the KKT check")
    return x


def reference_solution(inst: QpInstance) -> np.ndarray:
    """Verified optimizer: KKT enumeration (n <= 6) or iterative reference.

    Enumeration covers all 3^n box patterns with the equality multiplier,
    verifies each candidate at kkt_check's 1e-8, and breaks objective ties
    by minimal norm.  The iterative reference runs TOS from 0 to a
    displacement of 1e-4 and returns the first of two points that passes
    kkt_check at 1e-10: TOS's box point, then that point's active set
    (coordinates within 1e-6 of a bound) solved as one KKT system and
    clipped to the box.  When neither passes, the same TOS run goes on to
    1e-12, and its box point must pass at 1e-8.  Raises OracleFailure
    when no pattern passes, and when the iterative reference meets a
    non-finite operator output, reaches its 10**6-step cap (both stages
    together) or ends at a point that fails its check; the benchmark then
    leaves that instance's abs_err nan.
    """
    if inst.n <= 6:
        return _kkt_enumerate(inst)
    return _tos_reference(inst)


def tau0_default(inst: QpInstance, z0) -> float:
    """Initial inner tolerance tau0 = ||z0 - P_X(z0) + Q z0||^3 + 1.

    The linear term e of the forward map does not enter.  A z0 whose
    tau0 is not finite (||r||^3 overflows above about 5.6e102) raises
    ValueError naming z0.
    """
    z0 = _point(z0, inst.n, "z0")
    with np.errstate(over="ignore", invalid="ignore"):
        r = z0 - _clip(z0, inst.lo, inst.hi) + inst.Q @ z0
        norm = _norm(r)
    try:
        tau0 = norm ** 3 + 1.0
    except OverflowError:
        tau0 = np.inf
    # written so that NaN fails
    if not tau0 < np.inf:
        raise ValueError("z0 is too large: tau0 = ||z0 - P_X(z0) + Q z0||^3 "
                         "+ 1 is not finite")
    return tau0
