"""Four-operator splitting: Douglas-Rachford outer loop, Tseng inner solver.

Solves 0 in A(z) + C(z) + F1(z) + F2(z) by running the inexact
Douglas-Rachford loop, drs.drs_solve, on A and B = C + F1 + F2, where each
B-solve is delegated to the Tseng forward-backward loop on the strongly
monotone prox subproblem (tseng_solve), which returns the B-solver's triple.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from .drs import (EXTRAGRADIENT, DrsConfig, DrsState, Quadruple, StopRule,
                  check_termination, drs_ergodic, drs_solve)
from .operators import CocoerciveMap, LipschitzMap, SplittableOperator, _norm
from .tseng import CertBlock, TsengProblem, tseng_solve

__all__ = [
    "DrtProblem",
    "RunRecord",
    "tolerance_stop",
    "delta_stop",
    "residual_stop",
    "drt_solve",
]


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
    """Successive-iterate rule ||z_k - z_{k-1}|| <= tol, extragradient steps
    only; z_{k-1} is state.hist_z_prev[-1], the start of the last step."""
    if not 0 < tol < math.inf:         # written so that NaN fails
        raise ValueError("tolerance must be positive and finite")

    def fired(state: DrsState) -> bool:
        if not state.trace or state.trace[-1].step != EXTRAGRADIENT:
            return False
        return _norm(state.z - state.hist_z_prev[-1]) <= tol

    return fired


def residual_stop(tol: float) -> StopRule:
    """Residual rule gamma*||a+b|| = ||x-y|| <= tol, every step."""
    if not 0 < tol < math.inf:         # written so that NaN fails
        raise ValueError("tolerance must be positive and finite")

    def fired(state: DrsState) -> bool:
        return state.last is not None and state.residual <= tol

    return fired


def drt_solve(p: DrtProblem, stop: StopRule, state: DrsState,
              max_inner: int = 1000,
              inner_cert_log: list | None = None) -> tuple[RunRecord, Quadruple]:
    """drs_solve on p with tseng_solve as its B-solver; the run's record.

    The state is DrsState.initial(z0, p.cfg); drs_solve's checks on it
    make the record (counts from the trace; time_s, drs_solve's wall,
    which the last certificate block's check follows), trace, certificate
    log and outer call numbers cover the same steps.
    f2_evals = inner: each Tseng step evaluates F2 exactly once.

    The B-solve is tseng_solve on the problem's one Tseng subproblem,
    whose gamma was checked against gamma_max when p was built; it takes
    each request (z_{k-1}, tau_{k-1}) and returns (x, b, eps_b, inner).
    With inner_cert_log, every inner step is certified (see tseng_solve)
    and all B-solves add their steps to one CertBlock, so a failing step
    raises InvariantViolation naming its outer B-solve call and inner step.
    """
    with (nullcontext() if inner_cert_log is None else
          CertBlock(p.tseng, inner_cert_log, label="outer B-solve call")) as block:
        elapsed = drs_solve(p.A, partial(tseng_solve, p.tseng,
                                         max_inner=max_inner, cert_log=block),
                            p.cfg, stop, state)

    inner = sum(t.inner for t in state.trace)
    record = RunRecord(
        algo="drt",
        n=p.A.dim,
        iters=state.k,
        extragrad=state.n_extragradient,
        null=state.beta,
        inner=inner,
        f2_evals=inner,
        time_s=elapsed,
        residual=state.residual,
    )
    return record, state.last
