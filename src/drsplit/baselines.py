"""Comparison algorithms for the constrained-QP benchmark.

Two fixed-point schemes over the same three-piece decomposition
(box, nullspace, affine forward map): a three-operator splitting (TOS)
iteration and a relaxed forward-Douglas-Rachford (rFDRS) iteration,
both run with step gamma = 1.99*beta for the scheme's own cocoercivity
constant beta.  Both step with the instance's operators, as drt does, so
their timings compare algorithms rather than kernels.  Both run at unit
relaxation, where a step's displacement ||z+ - z|| is also its
fixed-point residual, so the delta and residual stopping rules are one
test for them and ``--stop`` changes only drt.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from .drt import RunRecord
from .errors import ContractViolation, IterationBudgetExceeded
from .operators import _integral, _inverse_norm, _norm, _point

if TYPE_CHECKING:   # qp runs the TOS loop for its reference oracle
    from .qp import QpInstance

__all__ = [
    "tos_gamma",
    "rfdrs_gamma",
    "tos_iterate",
    "rfdrs_iterate",
    "run_baseline",
]


def estimate_beta_V(Q, K) -> float:
    """Reciprocal spectral norm of P_M Q P_M with M = null(K)."""
    K = _point(K, name="K")
    P = np.eye(K.size) - np.outer(K, K) / K.size
    Q = np.asarray(Q, dtype=float)
    return _inverse_norm(np.linalg.eigvalsh(P @ Q @ P))


def tos_gamma(inst: QpInstance) -> float:
    """TOS step 1.99*beta with beta = inst.eta = 1/||Q||."""
    beta = inst.eta
    if not np.isfinite(beta):
        raise ValueError("zero quadratic term: beta is unbounded")
    return 1.99 * beta


def rfdrs_gamma(inst: QpInstance) -> float:
    """rFDRS step 1.99*beta with beta = 1/||P_M Q P_M||; the TOS step where
    P_M Q P_M vanishes (n = 1: M = {0}, so any step is admissible)."""
    beta = estimate_beta_V(inst.Q, inst.K)
    return 1.99 * beta if np.isfinite(beta) else tos_gamma(inst)


def tos_iterate(z, inst: QpInstance, gamma: float):
    """One TOS step: box point, shifted nullspace projection, update."""
    xB = inst.C.resolvent(gamma, z)
    xA = inst.A.resolvent(gamma, 2.0 * xB - z - gamma * inst.F2.eval(xB))
    return z + (xA - xB)


def rfdrs_iterate(z, inst: QpInstance, gamma: float):
    """One rFDRS step; the forward term is evaluated through P_M."""
    x = inst.A.resolvent(gamma, z)
    g = inst.A.resolvent(gamma, inst.F2.eval(x))
    w = inst.C.resolvent(gamma, 2.0 * x - z - gamma * g)
    return z + (w - x)


def _fixed_point(step, z, inst: QpInstance, gamma: float, tol: float,
                 max_iter: int, algo: str):
    """(z, iters, residual) of z <- step(z, inst, gamma) to ||z+ - z|| <= tol.

    The loop of run_baseline and of qp's reference oracle; a resolvent's
    ValueError becomes ContractViolation naming algo and the iteration.
    The oracle calls this loop, not run_baseline, so its time stays out of
    the records' time_s.
    """
    try:
        for k in range(1, max_iter + 1):
            z_new = step(z, inst, gamma)
            resid = _norm(z_new - z)
            z = z_new
            if resid <= tol:
                return z, k, resid
    except ValueError as exc:
        raise ContractViolation(f"{algo} iteration {k}: {exc}") from exc
    raise IterationBudgetExceeded(
        f"{algo} did not reach tol {tol} in {max_iter} iterations")


def run_baseline(inst: QpInstance, algo: str, tol: float, z0=None,
                 max_iter: int = 10 ** 6):
    """Drive a baseline until ||z+ - z|| <= tol.

    At unit relaxation the displacement is the fixed-point residual, which
    the record reports.  Returns (record, solution) where the solution is
    the scheme's own solution-approximating block: P_X(z) for TOS, P_M(z)
    for rFDRS.  The record's instance is -1 and its abs_err nan;
    bench.run_single fills both.
    A bad tol, max_iter or z0 raises ValueError naming it before the
    first step.  A step whose resolvent rejects its input (a non-finite
    operator output) raises ContractViolation naming the algorithm and
    iteration.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if not (_integral(max_iter) and max_iter >= 1):
        raise ValueError("max_iter must be an integer >= 1")
    if algo == "tos":
        gamma, step, block = tos_gamma(inst), tos_iterate, inst.C
    elif algo == "rfdrs":
        gamma, step, block = rfdrs_gamma(inst), rfdrs_iterate, inst.A
    else:
        raise ValueError(f"unknown baseline {algo!r}")
    z = np.zeros(inst.n) if z0 is None else _point(z0, inst.n, "z0")
    t0 = time.perf_counter()
    z, iters, resid = _fixed_point(step, z, inst, gamma, tol, max_iter, algo)
    elapsed = time.perf_counter() - t0
    sol = block.resolvent(gamma, z)
    rec = RunRecord(algo=algo, n=inst.n, iters=iters, extragrad=0, null=0,
                    inner=0, f2_evals=iters, time_s=elapsed, residual=resid)
    return rec, sol
