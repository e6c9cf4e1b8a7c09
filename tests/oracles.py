"""Reference oracles for the test suite; no solver path uses them.

The KKT active-set enumeration, the exhaustive optimizer of a small QP
that ``qp.reference_solution`` and the solvers are checked against, an
exact-resolvent Douglas-Rachford run and the projected-gradient
box-QP solver behind it, a B-solver from an exact resolvent, the F1-free
Tseng loop on a box QP in textbook formulas, an affine
monotone test operator, the eps-enlargement triple with exact membership
tests for the two cones and the enlargement of a cocoercive map
evaluated off-target, the transportation formula for enlargement
triples, and prefix ergodic averages read through ``drs.drs_ergodic``.
pytest does not collect this module (no ``test_`` prefix); test modules
import it with ``from oracles import ...``, which resolves because
pytest's default import mode puts the tests directory on ``sys.path``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from drsplit.drs import BSolver, DrsState, Quadruple, drs_ergodic
from drsplit.errors import InvariantViolation, OracleFailure
from drsplit.operators import (BoxNormalCone, CocoerciveMap,
                               NullspaceNormalCone, SplittableOperator,
                               _check_symmetric, _point, slack)
from drsplit.qp import QpInstance, estimate_eta, kkt_check, objective


def kkt_enumerate(inst: QpInstance) -> np.ndarray:
    """Optimizer of a small QP by all 3^n active-set patterns.

    Each coordinate is at lo, free or at hi.  All patterns are solved in
    one stacked pseudo-inverse of the full (n + 1)-square KKT system:
    a bound coordinate's row is the identity row with its bound on the
    right, a free one's is (Q_i, K_i) with -e_i, and the last row is
    Kz = 0.  This is written apart from ``qp._solve_pattern``'s reduced
    bordered system and its lstsq, so that a fault in one cannot hide in
    the other.  The candidates that pass kkt_check at 1e-8, clipped to
    the box, are ranked by objective, ties within 1e-10*(1 + |f|) broken
    by least norm.  Raises OracleFailure when no pattern passes.  Memory
    and time grow as 3^n: meant for n <= 6.
    """
    n = inst.n
    pats = np.indices((3,) * n).reshape(n, -1).T - 1     # -1 lo, 0 free, 1 hi
    bound = pats != 0
    M = np.zeros((pats.shape[0], n + 1, n + 1))
    M[:, :n, :n] = np.where(bound[:, :, None], np.eye(n), inst.Q)
    M[:, :n, n] = np.where(bound, 0.0, inst.K)
    M[:, n, :n] = inst.K
    rhs = np.zeros((pats.shape[0], n + 1))
    rhs[:, :n] = np.where(pats < 0, inst.lo,
                          np.where(pats > 0, inst.hi, -inst.e))
    Z = np.einsum("pij,pj->pi", np.linalg.pinv(M), rhs)[:, :n]
    # kkt_check's first two tests on the whole stack, to spare it the
    # candidates outside the box or off Kz = 0
    near = (np.all(Z >= inst.lo - 1e-8, axis=1)
            & np.all(Z <= inst.hi + 1e-8, axis=1)
            & (np.abs(Z @ inst.K) <= 1e-8 * (1.0 + np.linalg.norm(Z, axis=1))))
    best = None
    for z in Z[near]:
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


class EnlargementTriple(NamedTuple):
    """A point z, a candidate v in T^eps(z), and the enlargement level eps."""

    z: np.ndarray
    v: np.ndarray
    eps: float


def box_contains(C: BoxNormalCone, triple: EnlargementTriple) -> bool:
    """Exact test of v in N_X^eps(z), to round-off.

    True iff z lies in X = [lo, hi] and the support-function gap
    sigma_X(v) - <v, z> = sum_i v_i (hi_i - z_i if v_i > 0 else
    lo_i - z_i) is at most eps.  The gap is 0 at (x, (z - x)/gamma) for
    a resolvent output x = resolvent(gamma, z).
    """
    z = C._check_dim(triple.z)
    v = C._check_dim(triple.v)
    if (np.any(z < C.lo - slack(C.lo))
            or np.any(z > C.hi + slack(C.hi))):
        return False
    terms = np.where(v > 0, v * (C.hi - z), v * (C.lo - z))
    return float(terms.sum()) <= triple.eps + slack(float(np.abs(terms).sum()))


def nullspace_contains(A: NullspaceNormalCone,
                       triple: EnlargementTriple) -> bool:
    """Exact test of v in N_M^eps(z), to round-off.

    For z in M the enlargement is M-perp at every eps >= 0, so: True
    iff K.z = 0, v is parallel to K (sigma_M(v) = 0) and the gap
    -<v, z>, which is then 0, is at most eps.
    """
    z = A._check_dim(triple.z)
    v = A._check_dim(triple.v)
    in_M = abs(float(A.K @ z)) <= slack(float(np.abs(z).sum()))
    along_K = (np.abs(A.resolvent(1.0, v)).max()
               <= slack(float(np.abs(v).max())))
    return bool(in_M and along_K and -float(v @ z)
                <= triple.eps + slack(float(np.abs(v) @ np.abs(z))))


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


def exact_bsolver(opB: SplittableOperator, gamma: float) -> BSolver:
    """B-solver from an exact resolvent oracle at the stepsize gamma;
    eps_b = inner = 0, any tau."""

    def solve(z_prev, tau):
        x = opB.resolvent(gamma, z_prev)
        return x, (z_prev - x) / gamma, 0.0, 0

    return solve


def textbook_tseng(inst: QpInstance, gamma: float, eta: float, z_hat,
                   tau_hat: float, sigma: float | None = None):
    """The F1-free Tseng loop on a box QP, written with the textbook formulas.

    Matmul, ``np.clip``, and both differences formed separately.  Returns
    ``(x, b, eps, steps)`` of its last step, by the formulas of
    ``tseng_solve``'s docstring; with ``sigma`` given, returns that tuple
    and the step certificates ``(z, z_tilde, v, eps, gamma, sigma)`` as
    ``CertBlock`` logs them.  Raises AssertionError after 1000 steps.
    """
    certs = []
    z = z_hat
    for j in range(1, 1001):
        z_prime = z
        w = (z_hat + z_prime - gamma * (inst.Q @ z_prime + inst.e)) / 2.0
        z_tilde = np.clip(w, inst.lo, inst.hi)
        z_next = z_tilde
        d1 = z - z_next
        d2 = z_prime - z_tilde
        d2_sq = float(d2 @ d2)
        eps = d2_sq / (4.0 * eta)
        certs.append((z, z_tilde, d1 / gamma, eps, gamma, sigma))
        if float(d1 @ d1) + gamma * d2_sq / (2.0 * eta) <= tau_hat:
            b = (z_hat + z - (z_next + z_tilde)) / gamma
            out = (z_tilde, b, eps, j)
            return out if sigma is None else (out, certs)
        z = z_next
    raise AssertionError("textbook Tseng loop hit its budget")


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
        y = inst.A.resolvent(gamma, 2.0 * x - z)
        z_new = z + (y - x)
        if float(np.linalg.norm(z_new - z)) <= 1e-12:
            z = z_new
            break
        z = z_new
    else:
        raise OracleFailure("exact-resolvent reference hit its cap")
    return z, float(np.linalg.norm(z0 - z))


class AffineMonotone(SplittableOperator):
    """Single-valued affine monotone operator z -> W z + c with W PSD."""

    def __init__(self, W, c=None):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        super().__init__(W.shape[0])
        if W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        _check_symmetric(W, "W")
        self.W = W
        self.c = np.zeros(self.dim) if c is None else self._check_dim(c)

    def __call__(self, z):
        return self.W @ self._check_dim(z) + self.c

    def resolvent(self, gamma, z):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        z = self._check_dim(z)
        return np.linalg.solve(np.eye(self.dim) + gamma * self.W,
                               z - gamma * self.c)


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
    # written so that a NaN weight fails both tests
    if not np.all(w >= -1e-12):
        raise ValueError("weights must be nonnegative")
    if not abs(w.sum() - 1.0) <= 1e-12:
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


def ergodic_prefix(state: DrsState, j: int) -> Quadruple:
    """drs_ergodic over the first j extragradient indices of state.

    Builds a state whose history is the first j entries of state's and
    reads it with the library's drs_ergodic.
    """
    head = DrsState(state.z, state.tau)
    for name in ("hist_z_prev", "hist_x", "hist_y", "hist_a", "hist_b",
                 "hist_eps_b"):
        setattr(head, name, getattr(state, name)[:j])
    return drs_ergodic(head)
