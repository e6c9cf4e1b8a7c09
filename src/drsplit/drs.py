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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded, StateError)
from .hpe import HpeStepCertificate
from .operators import SplittableOperator, _integral, slack

__all__ = [
    "EXTRAGRADIENT",
    "NULL",
    "DrsConfig",
    "DrsState",
    "Quadruple",
    "TraceRecord",
    "BSolver",
    "drs_iterate",
    "check_termination",
    "drs_ergodic",
    "outer_certificates",
    "null_step_bounds",
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
        if not (self.rho_tol > 0 and self.eps_tol > 0):
            raise ValueError("tolerances must be positive")
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
    and delta_stop (z_{k-1} = hist_z_prev[-1]); drt_solve takes it fresh.
    """

    def __init__(self, z0, tau0):
        self.tau0 = self.tau = float(tau0)
        if not 0 < self.tau < math.inf:
            raise ValueError("tau0 must be positive and finite")
        self.z = np.asarray(z0, dtype=float).copy()
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
    scale = (math.sqrt(float(z.dot(z))) + math.sqrt(float(x.dot(x)))
             + math.sqrt(float(y.dot(y))) + gamma * math.sqrt(float(b.dot(b))))
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
    state.tau0.  Mutates and returns state.  A ContractViolation or
    IterationBudgetExceeded from the B-solver, and a ContractViolation
    about its return (not four values, x or b of another shape, eps_b
    not >= 0, inner not an integer >= 0, tolerance exceeded), carry the
    prefix "outer B-solve call <k>: ", k = state.k + 1, and leave state
    as it was.
    """
    if state.k >= cfg.max_iter:
        raise IterationBudgetExceeded(f"max_iter={cfg.max_iter} reached")
    gamma = cfg.gamma
    tau_prev = state.tau
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
    y = A.resolvent(gamma, w)
    a = (w - y) / gamma
    quad = Quadruple(x, y, a, b, 0.0, eps_b)
    d = x - y
    residual = math.sqrt(float(d.dot(d)))

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
    d = np.asarray(x) - np.asarray(y)
    v = np.asarray(a) + np.asarray(b)
    residual = math.sqrt(float(d.dot(d)))
    vnorm = cfg.gamma * math.sqrt(float(v.dot(v)))
    if not abs(vnorm - residual) <= slack(residual):
        raise ContractViolation("gamma*||a+b|| deviates from ||x-y||")
    return residual <= cfg.rho_tol and eps_a + eps_b <= cfg.eps_tol


def drs_ergodic(state: DrsState) -> Quadruple:
    """Uniform averages over the j extragradient indices taken so far.

    eps_a_bar = (1/j) sum <y_l - ybar, a_l>;
    eps_b_bar = (1/j) sum (eps_b_l + <x_l - xbar, b_l>).
    Both are >= 0 up to round-off (transported enlargements).
    """
    j = state.n_extragradient
    if j < 1:
        raise StateError("no extragradient steps taken yet")
    ybar, abar, eps_a_bar = _ergodic_average(
        state.hist_y, state.hist_a, np.zeros(j))
    xbar, bbar, eps_b_bar = _ergodic_average(
        state.hist_x, state.hist_b, state.hist_eps_b)
    return Quadruple(xbar, ybar, abar, bbar, eps_a_bar, eps_b_bar)


def _ergodic_average(zs, vs, eps) -> tuple[np.ndarray, np.ndarray, float]:
    # (zbar, vbar, ebar) in the expanded correction form
    # ebar = (1/j) sum_l (eps_l + <z_l - zbar, v_l>); ebar >= 0 up to
    # round-off when each v_l lies in T^{eps_l}(z_l), so a clearly
    # negative value raises, and so does NaN
    Z = np.stack(zs)
    V = np.stack(vs)
    eps = np.asarray(eps, dtype=float)
    j = len(Z)
    zbar = Z.sum(axis=0) / j
    vbar = V.sum(axis=0) / j
    corr = np.einsum("ij,ij->i", Z - zbar, V)
    ebar = float((eps + corr).sum()) / j
    scale = float((np.abs(eps) + np.abs(corr)).sum()) / j
    if not ebar >= -slack(scale):
        raise InvariantViolation(
            f"negative or NaN ergodic enlargement: {ebar}")
    return zbar, vbar, max(ebar, 0.0)


def outer_certificates(state: DrsState,
                       cfg: DrsConfig) -> list[HpeStepCertificate]:
    """Each extragradient step taken so far as an inexact proximal step.

    One certificate per step, in order, at lam = 1 against the splitting
    operator: z_tilde = y + gamma*b, v = gamma*(a+b), eps = gamma*eps_b,
    and the update replays it, z = z_prev - v.  Null steps have none, so
    the list is empty before the first extragradient step.  The rows are
    not checked here; verify_hpe_inequality checks one.
    """
    gamma, sigma = cfg.gamma, cfg.sigma
    return [HpeStepCertificate(z_prev, y + gamma * b, gamma * (a + b),
                               gamma * eps_b, 1.0, sigma)
            for z_prev, y, a, b, eps_b in zip(
                state.hist_z_prev, state.hist_y, state.hist_a, state.hist_b,
                state.hist_eps_b)]


def null_step_bounds(tau0: float, sigma: float, beta_prev: int,
                     theta: float) -> tuple[float, float]:
    """Upper bounds valid at any null step taken with beta_prev prior nulls.

    Returns ((1 + 1/sigma) * sqrt(theta**beta_prev * tau0),
    theta**beta_prev * tau0 / 2) bounding the residual ||x - y|| and
    gamma*eps_b respectively.  The arguments are checked as DrsConfig
    checks its fields, so that NaN fails.
    """
    if not (_integral(beta_prev) and beta_prev >= 0):
        raise ValueError("beta_prev must be an integer >= 0")
    if not 0 < tau0 < math.inf:
        raise ValueError("tau0 must be positive and finite")
    if not (0 < sigma < 1 and 0 < theta < 1):
        raise ValueError("sigma and theta must lie in (0, 1)")
    tau = theta ** beta_prev * tau0
    return (1.0 + 1.0 / sigma) * float(np.sqrt(tau)), tau / 2.0
