"""Inexact Douglas-Rachford splitting with extragradient and null steps.

The outer loop solves 0 in A(z) + B(z) through the splitting operator
whose zeros are y + gamma*b with b in B(x), a in A(y), gamma*a + y =
x - gamma*b and a + b = 0.  A B-solver produces an approximate resolvent
triple (x, b, eps_b) within a tolerance tau; the relative-error test
decides between an extragradient update of the governing iterate and a
null step that only shrinks tau.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded, StateError)
from .hpe import HpeStepCertificate, ergodic_bound, pointwise_bound
from .operators import SplittableOperator, _integral, _norm, _point, slack

__all__ = [
    "EXTRAGRADIENT",
    "NULL",
    "DrsConfig",
    "DrsState",
    "Quadruple",
    "TraceRecord",
    "BSolver",
    "StopRule",
    "drs_iterate",
    "drs_solve",
    "check_termination",
    "drs_ergodic",
    "outer_certificates",
    "null_step_bounds",
    "BoundCheck",
    "envelope",
]

EXTRAGRADIENT = "extragradient"
NULL = "null"

# (z_prev, tau) -> (x, b, eps_b, inner) with ||gamma*b + x - z_prev||^2
# + 2*gamma*eps_b <= tau, b in B^{eps_b}(x) and inner the solver's steps;
# gamma is the problem's, fixed when the B-solver is built.
BSolver = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray, float, int]]


@dataclass(frozen=True)
class DrsConfig:
    gamma: float
    sigma: float
    theta: float
    tau0: float
    rho_tol: float
    eps_tol: float
    max_iter: int = 10000

    def __post_init__(self):
        # written so that NaN fails; an infinite gamma or tau0 turns tau
        # into NaN after enough null steps
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
        # an infinite tolerance stops at once, at a point that is no answer
        if not (0 < self.rho_tol < math.inf and 0 < self.eps_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        # a NaN never trips the k >= max_iter budget test, and a
        # fraction would round the budget up
        if not (_integral(self.max_iter) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")


class Quadruple(NamedTuple):
    """a in A^{eps_a}(y), b in B^{eps_b}(x); eps_a = 0 for an iterate."""

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eps_a: float
    eps_b: float


class TraceRecord(NamedTuple):
    k: int
    step: str
    tau: float
    residual: float
    eps_b: float
    inner: int


class DrsState:
    """Mutable per-solve state: governing iterate, tolerance ladder, history.

    tau0 is the state's own start: beta counts the null steps, and tau
    always equals theta**beta * tau0 in exponent arithmetic.  The trace
    has one TraceRecord per step (k is its length): kind, tau after it,
    ||x - y||, eps_b and the B-solver's inner steps, so the last step's
    kind is trace[-1].step.  The extragradient history
    (one entry per extragradient index) feeds drs_ergodic, outer_certificates
    and delta_stop (z_{k-1} = hist_z_prev[-1]); drs_solve takes it fresh.
    z0 must be a finite vector (ValueError naming z0); a state has no
    dimension of its own, so its length is the solve's to check.
    """

    def __init__(self, z0, tau0):
        self.tau0 = self.tau = float(tau0)
        if not 0 < self.tau < math.inf:
            raise ValueError("tau0 must be positive and finite")
        self.z = _point(z0, name="z0").copy()
        self.beta = 0
        self.last: Quadruple | None = None
        self.hist_z_prev: list[np.ndarray] = []
        self.hist_x: list[np.ndarray] = []
        self.hist_y: list[np.ndarray] = []
        self.hist_a: list[np.ndarray] = []
        self.hist_b: list[np.ndarray] = []
        self.hist_eps_b: list[float] = []
        self.trace: list[TraceRecord] = []

    @classmethod
    def initial(cls, z0, cfg: DrsConfig) -> "DrsState":
        return cls(z0, cfg.tau0)

    @property
    def k(self) -> int:
        return len(self.trace)

    @property
    def n_extragradient(self) -> int:
        return len(self.hist_x)

    @property
    def residual(self) -> float:
        """||x - y|| of the last step, as drs_iterate recorded it."""
        if not self.trace:
            raise StateError("no iteration taken yet")
        return self.trace[-1].residual


def _tie_noise(gamma, z, x, y, b) -> float:
    # both sides of the relative-error test are squares of vectors computed
    # to absolute accuracy ~1e-16*scale; below (1e-13*scale)^2 their
    # ordering is round-off, and the exact-arithmetic value of lhs there is
    # 0 (b recomposes x and z), so the tie must break toward extragradient
    # or tau underflows
    scale = _norm(z) + _norm(x) + _norm(y) + gamma * _norm(b)
    return (1e-13 * (1.0 + scale)) ** 2


def drs_iterate(state: DrsState, cfg: DrsConfig, bsolver: BSolver,
                A: SplittableOperator) -> DrsState:
    """One outer iteration: B-solve, A-resolvent, classify, update.

    Calls the B-solver with (z_{k-1}, tau_{k-1}), checks its contract
    at cfg.gamma (the check that catches a B-solver built for another
    gamma), takes the resolvent point y of A at w = x - gamma*b and
    forms a = (w - y)/gamma, and applies the relative-error test: on
    success the extragradient update moves z and keeps tau, otherwise z
    freezes and tau steps down the state's own ladder, theta**beta *
    state.tau0.  Mutates and returns state.  A ladder that has underflowed
    to tau = 0 raises IterationBudgetExceeded naming the outer step and
    beta before the B-solver is called.  A ContractViolation or
    IterationBudgetExceeded from the B-solver, and a ContractViolation
    about its return (not four values, x or b of another shape, eps_b
    not >= 0, inner not an integer >= 0, tolerance exceeded), carry the
    prefix "outer B-solve call <k>: ", k = state.k + 1, and leave state
    as it was; so does A's resolvent's ValueError, as ContractViolation
    with the prefix "outer step <k>: ".  A NaN eps_b or point fails the
    contract at the first call rather than running null steps to
    max_iter; a ValueError raised inside the B-solver keeps its type.
    """
    if state.k >= cfg.max_iter:
        raise IterationBudgetExceeded(f"max_iter={cfg.max_iter} reached")
    gamma = cfg.gamma
    tau_prev = state.tau
    if not tau_prev > 0:
        raise IterationBudgetExceeded(
            f"outer step {state.k + 1}: the tolerance ladder collapsed: "
            f"theta**beta * tau0 is {tau_prev:g} at beta={state.beta}")
    z = state.z

    try:
        out = bsolver(z, tau_prev)
        try:
            x, b, eps_b, inner = out
        except (TypeError, ValueError) as exc:
            raise ContractViolation(
                f"bsolver returned a {type(out).__name__}, not (x, b, eps_b, "
                f"inner): {exc}") from exc
        x = np.asarray(x, dtype=float)
        b = np.asarray(b, dtype=float)
        if x.shape != z.shape or b.shape != z.shape:
            raise ContractViolation(
                f"bsolver returned x of shape {x.shape} and b of shape "
                f"{b.shape}, not {z.shape}")
        eps_b = float(eps_b)
        # written so that NaN fails both tests
        if not eps_b >= 0:
            raise ContractViolation(f"bsolver returned eps_b={eps_b}, "
                                    "not >= 0")
        if not (_integral(inner) and inner >= 0):
            raise ContractViolation(
                f"bsolver returned inner={inner!r}, not an integer >= 0")
        gb = gamma * b
        r_b = gb + x - z
        lhs = float(r_b.dot(r_b)) + 2.0 * gamma * eps_b
        if not lhs <= tau_prev + slack(tau_prev):
            raise ContractViolation(
                f"bsolver output violates its tolerance: {lhs} > {tau_prev}")
    except (ContractViolation, IterationBudgetExceeded) as exc:
        # the B-solver's own errors and the checks of its return alike
        raise type(exc)(f"outer B-solve call {state.k + 1}: {exc}") from exc

    w = x - gb
    try:
        y = A.resolvent(gamma, w)
    except ValueError as exc:
        raise ContractViolation(f"outer step {state.k + 1}: {exc}") from exc
    a = (w - y) / gamma
    quad = Quadruple(x, y, a, b, 0.0, eps_b)
    residual = _norm(x - y)

    # a is formed from y, so gamma*(a+b) = x - y up to round-off; only a
    # non-finite y can break it (x passed the tolerance check)
    if not math.isfinite(residual):
        raise ContractViolation(
            f"A's resolvent returned a non-finite point (||x-y||={residual})")

    r_test = gb + y - z
    rhs = cfg.sigma ** 2 * float(r_test.dot(r_test))
    # inclusive: equality classifies as extragradient; the round-off
    # allowance is computed only when the plain test fails, and since it
    # is >= 0 the decision is that of lhs <= rhs + _tie_noise(...)
    if lhs <= rhs or lhs <= rhs + _tie_noise(gamma, z, x, y, b):
        state.hist_z_prev.append(z)
        state.hist_x.append(x)
        state.hist_y.append(y)
        state.hist_a.append(a)
        state.hist_b.append(b)
        state.hist_eps_b.append(eps_b)
        state.z = z - gamma * (a + b)
        step = EXTRAGRADIENT
    else:
        state.beta += 1
        state.tau = cfg.theta ** state.beta * state.tau0
        step = NULL
    state.last = quad
    state.trace.append(TraceRecord(state.k + 1, step, state.tau, residual,
                                   eps_b, int(inner)))
    return state


StopRule = Callable[[DrsState], bool]


def drs_solve(A: SplittableOperator, bsolver: BSolver, cfg: DrsConfig,
              stop: StopRule, state: DrsState) -> float:
    """Run drs_iterate from a fresh state until stop(state); wall seconds.

    The state is advanced in place, and stop is read after each step, so
    a run takes at least one.  A state that has stepped raises StateError
    and a z0 of another length than A's ValueError, both before the first
    B-solve, so the trace and history cover this run alone; a step's error
    propagates with the state as drs_iterate left it.
    """
    if state.k:
        raise StateError(f"drs_solve needs a fresh state, got one at k={state.k}")
    _point(state.z, A.dim, "z0")
    t0 = time.perf_counter()
    while True:
        drs_iterate(state, cfg, bsolver, A)
        if stop(state):
            return time.perf_counter() - t0


def check_termination(q: Quadruple, cfg: DrsConfig) -> bool:
    """Tolerance test on a quadruple: ||x-y|| <= rho and eps_a+eps_b <= eps.

    Serves the iterate (eps_a = 0) and the ergodic average alike.
    Preconditions: eps_a, eps_b >= 0 and gamma*||a+b|| = ||x-y|| to
    ``slack(||x-y||)``, an absolute 1e-10 plus a relative 1e-10*||x-y||;
    a violation, NaN included, signals a corrupted quadruple, not a
    negative answer, and raises ContractViolation.
    Comparisons are inclusive.
    """
    x, y, a, b, eps_a, eps_b = q
    # written so that NaN fails
    if not (eps_a >= 0 and eps_b >= 0):
        raise ContractViolation(
            f"enlargements eps_a={eps_a}, eps_b={eps_b} are not both >= 0")
    residual = _norm(np.asarray(x) - np.asarray(y))
    vnorm = cfg.gamma * _norm(np.asarray(a) + np.asarray(b))
    if not abs(vnorm - residual) <= slack(residual):
        raise ContractViolation("gamma*||a+b|| deviates from ||x-y||")
    return residual <= cfg.rho_tol and eps_a + eps_b <= cfg.eps_tol


def drs_ergodic(state: DrsState) -> Quadruple:
    """Uniform averages over the j extragradient indices taken so far.

    eps_a_bar = (1/j) sum <y_l - ybar, a_l>;
    eps_b_bar = (1/j) sum (eps_b_l + <x_l - xbar, b_l>).
    Both are >= 0 up to round-off (transported enlargements).  Read from
    whole-history sums, they are envelope's last prefix (exactly if n > 1).
    """
    if state.n_extragradient < 1:
        raise StateError("no extragradient steps taken yet")
    (ybar, abar, eps_a), (xbar, bbar, eps_b) = _ergodic_averages(state, False)
    return Quadruple(xbar, ybar, abar, bbar, float(eps_a), float(eps_b))


def _ergodic_averages(state: DrsState, every_prefix: bool):
    # (zbar, vbar, ebar) of A's triples (y_l, a_l, 0), then B's (x_l, b_l,
    # eps_b_l), over the history or per prefix j, from sums: S_z/j, S_v/j,
    # (S_e - <S_z, S_v>/j)/j with S_e = sum (eps_l + <z_l, v_l>), that is
    # (1/j) sum (eps_l + <z_l - zbar, v_l>), >= 0 to round-off at the scale
    # S_m of its terms; NaN or less raises, naming the first such prefix.
    # Z.sum(axis=0) is Z.cumsum(axis=0)[-1] bit for bit for 2+ columns
    J, n = state.n_extragradient, state.z.size
    j = np.arange(1.0, J + 1) if every_prefix else np.array(float(J))
    for zs, vs, eps in ((state.hist_y, state.hist_a, 0.0),
                        (state.hist_x, state.hist_b, state.hist_eps_b)):
        Z, V = np.array(zs).reshape(J, n), np.array(vs).reshape(J, n)
        zv = np.einsum("ij,ij->i", Z, V)
        S_e, S_m = (eps + zv).cumsum(), (np.abs(eps) + np.abs(zv)).cumsum()
        S_z, S_v, S_e, S_m = (
            (Z.cumsum(axis=0), V.cumsum(axis=0), S_e, S_m) if every_prefix
            else (Z.sum(axis=0), V.sum(axis=0), S_e[-1], S_m[-1]))
        del Z, V        # before the next side's stacks: half the peak memory
        zv = np.einsum("...i,...i->...", S_z, S_v) / j
        ebar = (S_e - zv) / j
        ok = ebar >= -slack((S_m + np.abs(zv)) / j)
        if not ok.all():
            i = int(np.argmin(ok))
            raise InvariantViolation(
                f"prefix {int(np.ravel(j)[i])}: negative or NaN ergodic "
                f"enlargement: {np.ravel(ebar)[i]}")
        yield S_z / j[..., None], S_v / j[..., None], np.maximum(ebar, 0.0)


def outer_certificates(state: DrsState,
                       cfg: DrsConfig) -> list[HpeStepCertificate]:
    """Each extragradient step taken so far as an inexact proximal step.

    One certificate per step, in order, at lam = 1 against the splitting
    operator: z_tilde = y + gamma*b, v = gamma*(a+b), eps = gamma*eps_b;
    null steps have none.  Raises InvariantViolation unless the rows pair
    one to one with the trace's extragradient records and the update
    replays each: the move ||z - z_prev|| (z the next row's z_prev, or
    state.z), ||v|| and the residual agree to 1e-12*(1 + residual +
    ||z_prev|| + ||z||), a tolerance that scales with the iterates the
    move subtracts (their round-off reached 2.6e-12 on converged runs at
    ||z|| about 1e4).  verify_hpe_inequality checks a row's inequality.
    """
    gamma, sigma = cfg.gamma, cfg.sigma
    certs = [HpeStepCertificate(z_prev, y + gamma * b, gamma * (a + b),
                                gamma * eps_b, 1.0, sigma)
             for z_prev, y, a, b, eps_b in zip(
                 state.hist_z_prev, state.hist_y, state.hist_a, state.hist_b,
                 state.hist_eps_b)]
    steps = [t for t in state.trace if t.step == EXTRAGRADIENT]
    if len(steps) != len(certs):
        raise InvariantViolation(
            f"{len(certs)} extragradient steps in the history but "
            f"{len(steps)} in the trace")
    z_after = [c.z_prev for c in certs[1:]] + [state.z]
    for j, (cert, z, t) in enumerate(zip(certs, z_after, steps), 1):
        shift, vnorm = _norm(z - cert.z_prev), _norm(cert.v)
        tol = 1e-12 * (1.0 + t.residual + _norm(cert.z_prev) + _norm(z))
        if abs(shift - vnorm) > tol or abs(shift - t.residual) > tol:
            raise InvariantViolation(
                f"extragradient step {j}: residual readings diverge "
                f"({shift} vs {vnorm} vs {t.residual})")
    return certs


def null_step_bounds(tau, sigma: float) -> tuple:
    """Upper bounds valid at a null step whose B-solve was given tau.

    tau is state.tau0 for the first step and the previous trace record's
    tau after it.  Returns ((1 + 1/sigma) * sqrt(tau), tau / 2) bounding
    the residual ||x - y|| and gamma*eps_b; an array of tau gives arrays.
    """
    tau = np.asarray(tau, dtype=float)
    # written so that NaN fails
    if not (np.all((0 < tau) & (tau < math.inf)) and 0 < sigma < 1):
        raise ValueError("tau must be positive and finite and sigma in (0, 1)")
    return (1.0 + 1.0 / sigma) * np.sqrt(tau), tau / 2.0


class BoundCheck(NamedTuple):
    """One of the paper's bounds read over a run (see envelope).

    checked counts the rows, violations those whose observed value exceeds
    its bound by more than a relative 1e-10 (NaN included), and first is
    the index of the first violating row (j, or a null step's outer step
    k), 0 when none.  worst is the largest ratio of observed value to
    bound for each half, (residual, eps), and late the same over the
    later half of the run; both are 0 without rows.  The first rows cannot
    tell a 1/sqrt(j) bound from a 1/j one, and the later half can.
    """

    checked: int
    violations: int
    first: int
    worst: tuple[float, float]
    late: tuple[float, float]


def envelope(state: DrsState, cfg: DrsConfig,
             d0: float) -> dict[str, BoundCheck]:
    """The paper's pointwise, ergodic and null-step bounds over a run.

    d0 >= 0 is the distance from the run's start to the zero set of the
    splitting operator (an upper bound on it serves); a bound that reads
    0 holds only for an observed 0.  Each bound is called once, on its
    rows' indices or taus (so pointwise_bound checks d0).  Keys, in order:
    - "pointwise": a row per extragradient index j = 1..J, which holds
      when some step i <= j of outer_certificates has ||v_i|| and eps_i
      both within pointwise_bound(d0, sigma, j); its ratio per half is
      that of the best i <= j (outer_certificates raises on a history
      that does not replay its rows);
    - "ergodic": a row per prefix j, the uniform averages of the first j
      steps (drs_ergodic's, from prefix sums), gamma*||abar + bbar|| and
      gamma*(eps_a_bar + eps_b_bar) against ergodic_bound(d0, sigma, j);
      a negative or NaN averaged enlargement raises InvariantViolation
      naming its prefix j, before the pointwise rows are built;
    - "null-step": a row per null step, indexed by its outer step k, its
      residual and gamma*eps_b against null_step_bounds at the tau its
      B-solve was given.
    The ergodic rows cost O(J n); the pointwise rows compare every step
    i <= j with bound j, O(J^2) scalar work in memory O(J n).
    """
    gamma, sigma, J = cfg.gamma, cfg.sigma, state.n_extragradient
    js = np.arange(1, J + 1)
    bound = np.array(pointwise_bound(d0, sigma, js))
    # the ergodic rows first: a bad history without a trace names its prefix
    (_, abar, eps_a), (_, bbar, eps_b) = _ergodic_averages(state, True)
    v = abar + bbar
    ergodic = _bound_check(js, J, gamma * np.array((
        np.sqrt(np.einsum("ij,ij->i", v, v)), eps_a + eps_b)),
        ergodic_bound(d0, sigma, js))
    obs = np.array([(_norm(c.v), c.eps)
                    for c in outer_certificates(state, cfg)]).reshape(J, 2).T
    # both halves at one index i <= j, as the theorem states, 64 rows j at
    # a time (memory O(J)); per half, the best i <= j is the running minimum
    level = np.empty(J)
    for lo in range(0, J, 64):
        larger = np.maximum(*_ratio(obs[:, None], bound[:, lo:lo + 64, None]))
        level[lo:lo + 64] = np.where(js[lo:lo + 64, None] > np.arange(J),
                                     larger, np.inf).min(axis=1)
    pointwise = _bound_check(js, J, np.minimum.accumulate(obs, 1), bound, level)
    # the tau each B-solve was given: tau0, then the one the step before left
    given = [state.tau0] + [t.tau for t in state.trace[:-1]]
    null = np.reshape([(t.k, t.residual, gamma * t.eps_b, tau)
                       for t, tau in zip(state.trace, given)
                       if t.step == NULL], (-1, 4)).T
    return {"pointwise": pointwise, "ergodic": ergodic, "null-step":
            _bound_check(null[0], state.k, null[1:3],
                         null_step_bounds(null[3], sigma))}


def _ratio(observed, bound) -> np.ndarray:
    # observed / bound, where 0/0 is 0: a zero bound met exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(observed == 0, 0.0, observed / bound)


def _bound_check(index, total, observed, bound, level=None) -> BoundCheck:
    # observed and bound are (residual, eps) pairs, as the bounds return them;
    # entry r reads the bound at index[r] of total and holds while its level,
    # by default its larger ratio, is <= 1 + 1e-10 (written so NaN fails)
    ratios = _ratio(observed, bound)
    bad = ~((np.maximum(*ratios) if level is None else level) <= 1 + 1e-10)
    worst, late = (tuple(ratios[:, rows].max(axis=1, initial=0.0).tolist())
                   for rows in (slice(None), 2 * index > total))
    return BoundCheck(len(index), int(np.count_nonzero(bad)),
                      int(next(iter(index[bad]), 0)), worst, late)
