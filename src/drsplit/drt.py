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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drs import (EXTRAGRADIENT, BSolver, DrsConfig, DrsState, Quadruple,
                  check_termination, drs_ergodic, drs_iterate)
from .errors import ContractViolation, IterationBudgetExceeded
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

# pending inner certificate rows at which drt_solve checks its block after
# a B-solve; a B-solve is never split, so a block checked mid-solve holds
# this many rows or more, and the one checked at the end may hold fewer
CERT_BLOCK_ROWS = 64


@dataclass(frozen=True)
class DrtProblem:
    """0 in A + C + F1 + F2 with the outer configuration; F1 may be None.

    The Tseng subproblem (C, F1, F2, gamma, sigma) is built once here, and
    its construction is what rejects a gamma above gamma_max.
    """

    A: SplittableOperator
    C: SplittableOperator
    F1: LipschitzMap | None
    F2: CocoerciveMap
    cfg: DrsConfig
    tseng: TsengProblem = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tseng", TsengProblem(
            C=self.C, F1=self.F1, F2=self.F2, gamma=self.cfg.gamma,
            sigma=self.cfg.sigma))


@dataclass
class RunRecord:
    """Per-solve telemetry; field order matches the benchmark CSV schema."""

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

    Pointwise: ||x-y|| <= rho_tol and eps_b <= eps_tol (eps_a = 0) on the
    freshest quadruple.  Ergodic: the same test on the uniform
    extragradient averages.
    """

    def fired(state: DrsState) -> bool:
        if state.last is None:
            return False
        x, y, a, b, eps_b = state.last
        if check_termination(x, y, a, b, 0.0, eps_b, cfg):
            return True
        if state.n_extragradient < 1:
            return False
        e = drs_ergodic(state)
        return check_termination(e.x, e.y, e.a, e.b, e.eps_a, e.eps_b, cfg)

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
                inner_log: list | None = None,
                block: CertBlock | None = None) -> BSolver:
    """B-solver running the inner Tseng loop on each outer request.

    Receives the pre-update tolerance tau_{k-1} and prox center z_{k-1};
    every call reuses the problem's one Tseng subproblem, so gamma must be
    the problem's.  Inner iteration counts append to inner_log, and each
    call's steps join block when given (drt_solve owns it and checks it).
    Inner budget errors and rejected operator outputs carry outer-call
    context.
    """
    sub = p.tseng
    call = 0

    def solve(z_prev, tau, gamma):
        nonlocal call
        if gamma != sub.gamma:
            raise ValueError(
                f"B-solver built for gamma={sub.gamma}, called with {gamma}")
        call += 1
        try:
            out = tseng_solve(sub, z_prev, tau, max_inner=max_inner,
                              cert_log=block)
        except (ContractViolation, IterationBudgetExceeded) as exc:
            raise type(exc)(f"outer B-solve call {call}: {exc}") from exc
        if inner_log is not None:
            inner_log.append(out.inner_iters)
        b = (z_prev + out.z_prev - (out.z_next + out.z_tilde)) / gamma
        return out.z_tilde, b, out.eps

    return solve


def drt_solve(p: DrtProblem, stop: StopRule, z0=None, max_inner: int = 1000,
              state: DrsState | None = None,
              inner_cert_log: list | None = None) -> tuple[RunRecord, Quadruple]:
    """Run the outer loop until the stop rule fires.

    z0 defaults to the origin.  Passing a preconstructed state, which
    holds its own start, instead of z0 keeps the full iteration history
    accessible to the caller afterwards.  The record's f2_evals equals
    its inner count: each Tseng step evaluates F2 exactly once.

    With inner_cert_log, every inner step is certified (see tseng_solve)
    and the steps of successive B-solves are checked together: whenever
    CERT_BLOCK_ROWS or more are pending after a B-solve, and always before
    the solve returns or raises.  A failing step raises InvariantViolation
    naming its outer B-solve call and inner step, with exactly the
    certificates before it logged; that error takes precedence over any
    raised later in the solve.
    """
    if state is not None and z0 is not None:
        raise ValueError("pass z0 or state, not both: a state holds its start")
    if state is None:
        if z0 is None:
            z0 = np.zeros(p.A.dim)
        state = DrsState.initial(z0, p.cfg)
    inner_log: list[int] = []
    block = (None if inner_cert_log is None else
             CertBlock(p.tseng, inner_cert_log, label="outer B-solve call"))
    bsolver = drt_bsolver(p, max_inner=max_inner, inner_log=inner_log,
                          block=block)

    t0 = time.perf_counter()
    try:
        while True:
            drs_iterate(state, p.cfg, bsolver, p.A)
            if block is not None and len(block) >= CERT_BLOCK_ROWS:
                block.check()
            if stop(state):
                break
    except Exception:
        # a failed certificate of an earlier step takes precedence
        if block is not None:
            block.check()
        raise
    if block is not None:
        block.check()
    elapsed = time.perf_counter() - t0

    inner = sum(inner_log)
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
