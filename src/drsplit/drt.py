"""Four-operator splitting: Douglas-Rachford outer loop, Tseng inner solver.

Solves 0 in A(z) + C(z) + F1(z) + F2(z) by running the inexact
Douglas-Rachford iteration on A and B = C + F1 + F2, where each B-solve
is delegated to the Tseng forward-backward loop on the strongly monotone
prox subproblem.  The inner output quadruple maps to the outer triple as

    x = z_tilde,  b = (z_hat + z_prev_inner - (z_next + z_tilde))/gamma,
    eps_b = ||z_prime - z_tilde||^2 / (4 eta),

which satisfies the outer tolerance contract by the inner exit test.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from .drs import (EXTRAGRADIENT, BSolver, DrsConfig, DrsState, Quadruple,
                  check_termination, drs_ergodic, drs_iterate)
from .operators import CocoerciveMap, LipschitzMap, SplittableOperator
from .tseng import CertBlock, TsengProblem, tseng_solve

__all__ = [
    "DrtProblem",
    "RunRecord",
    "StopRule",
    "tolerance_stop",
    "delta_stop",
    "residual_stop",
    "drt_bsolver",
    "drt_solve",
]

StopRule = Callable[[DrsState], bool]

@dataclass(frozen=True)
class DrtProblem:
    """0 in A + C + F1 + F2 with the outer configuration; F1 may be None.

    The Tseng subproblem (C, F1, F2, gamma, sigma) is built once here, and
    its construction is what rejects a gamma above gamma_max.  An A whose
    dimension is not C's raises ValueError.
    """

    A: SplittableOperator
    C: SplittableOperator
    F1: LipschitzMap | None
    F2: CocoerciveMap
    cfg: DrsConfig
    tseng: TsengProblem = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.A.dim != self.C.dim:
            raise ValueError(f"A has dimension {self.A.dim}, "
                             f"C has dimension {self.C.dim}")
        object.__setattr__(self, "tseng", TsengProblem(
            C=self.C, F1=self.F1, F2=self.F2, gamma=self.cfg.gamma,
            sigma=self.cfg.sigma))


@dataclass
class RunRecord:
    """Per-solve telemetry; all fields but error are the CSV columns."""

    instance: int = -1
    algo: str = "drt"
    n: int = 0
    iters: int = 0
    extragrad: int = 0
    null: int = 0
    inner: int = 0
    f2_evals: int = 0
    time_s: float = 0.0
    residual: float = float("nan")
    abs_err: float = float("nan")
    error: str | None = field(default=None, compare=False)


def tolerance_stop(cfg: DrsConfig) -> StopRule:
    """Tolerance rule, pointwise first, then ergodic.

    check_termination on the freshest quadruple (eps_a = 0), then on the
    uniform extragradient averages.
    """

    def fired(state: DrsState) -> bool:
        return state.last is not None and (
            check_termination(state.last, cfg)
            or (state.n_extragradient >= 1
                and check_termination(drs_ergodic(state), cfg)))

    return fired


def delta_stop(tol: float) -> StopRule:
    """Successive-iterate rule ||z_k - z_{k-1}|| <= tol, extragradient steps only."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    def fired(state: DrsState) -> bool:
        if state.last_step != EXTRAGRADIENT:
            return False
        d = state.z - state.z_prev
        return math.sqrt(float(d.dot(d))) <= tol

    return fired


def residual_stop(tol: float) -> StopRule:
    """Residual rule gamma*||a+b|| = ||x-y|| <= tol, every step."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    def fired(state: DrsState) -> bool:
        return state.last is not None and state.residual <= tol

    return fired


def drt_bsolver(p: DrtProblem, max_inner: int = 1000,
                block: CertBlock | None = None) -> BSolver:
    """B-solver running the inner Tseng loop on each outer request.

    Receives the pre-update tolerance tau_{k-1} and prox center z_{k-1};
    every call reuses the problem's one Tseng subproblem, so gamma must be
    the problem's.  Returns the inner iteration count as its fourth value,
    and each call's steps join block when given.  Its errors carry no
    outer-call context; drs_iterate adds it.
    """
    sub = p.tseng

    def solve(z_prev, tau, gamma):
        if gamma != sub.gamma:
            raise ValueError(
                f"B-solver built for gamma={sub.gamma}, called with {gamma}")
        out = tseng_solve(sub, z_prev, tau, max_inner=max_inner,
                          cert_log=block)
        b = (z_prev + out.z_prev - (out.z_next + out.z_tilde)) / gamma
        return out.z_tilde, b, out.eps, out.inner_iters

    return solve


def drt_solve(p: DrtProblem, stop: StopRule, state: DrsState,
              max_inner: int = 1000,
              inner_cert_log: list | None = None) -> tuple[RunRecord, Quadruple]:
    """Run the outer loop from state until the stop rule fires.

    The state, DrsState.initial(z0, p.cfg) for a start z0, is the one
    start; advanced in place, it keeps the full iteration history for the
    caller.  The record's counts are read from the state's trace, so they
    cover every step the state has taken; its f2_evals equals its inner
    count: each Tseng step evaluates F2 exactly once.

    With inner_cert_log, every inner step is certified (see tseng_solve)
    and all B-solves add their steps to one CertBlock, so a failing step
    raises InvariantViolation naming its outer B-solve call and inner step.
    """
    block = (None if inner_cert_log is None else
             CertBlock(p.tseng, inner_cert_log, label="outer B-solve call"))
    bsolver = drt_bsolver(p, max_inner=max_inner, block=block)

    t0 = time.perf_counter()
    with block if block is not None else nullcontext():
        while True:
            drs_iterate(state, p.cfg, bsolver, p.A)
            if stop(state):
                break
    elapsed = time.perf_counter() - t0

    inner = sum(t.inner for t in state.trace)
    record = RunRecord(
        algo="drt",
        n=p.A.dim,
        iters=state.k,
        extragrad=state.n_extragradient,
        null=state.n_null,
        inner=inner,
        f2_evals=inner,
        time_s=elapsed,
        residual=state.residual,
    )
    return record, state.last
