"""Tseng forward-backward solver for the strongly monotone subproblem.

Given B = C + F1 + F2 (cone + Lipschitz + cocoercive) and a prox center
z_hat, the loop approximates the resolvent inclusion
0 in B(z) + (1/gamma)(z - z_hat) to a tolerance tau_hat, evaluating the
cocoercive component once per iteration.  Every step carries a
relative-error certificate with stepsize gamma, which is what makes the
outer splitting loop accept its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded)
from .hpe import HpeStepCertificate, verify_hpe_rows
from .operators import CocoerciveMap, LipschitzMap, SplittableOperator

__all__ = [
    "TsengProblem",
    "TsengOutput",
    "gamma_max",
    "tseng_step",
    "tseng_solve",
]


def gamma_max(eta: float, L: float, sigma: float) -> float:
    """Largest admissible stepsize: 4*eta*sigma^2/(1 + sqrt(1 + 16 L^2 eta^2 sigma^2)).

    Collapses to 2*eta*sigma^2 when L = 0.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not L >= 0:
        raise ValueError("L must be >= 0")
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")
    return 4.0 * eta * sigma ** 2 / (1.0 + np.sqrt(1.0 + 16.0 * L ** 2 * eta ** 2 * sigma ** 2))


@dataclass(frozen=True)
class TsengProblem:
    """The part of the subproblem that is fixed for a whole solve.

    F1 is None when there is no Lipschitz term.  Built and validated once;
    the prox center z_hat and the tolerance tau_hat change from call to
    call and are passed to tseng_step / tseng_solve.
    """

    C: SplittableOperator
    F1: LipschitzMap | None
    F2: CocoerciveMap
    gamma: float
    sigma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        L = 0.0 if self.F1 is None else self.F1.L
        gmax = gamma_max(self.F2.eta, L, self.sigma)
        # allow round-off at the boundary gamma == gamma_max
        if self.gamma > gmax * (1.0 + 1e-12):
            raise ValueError(f"gamma={self.gamma} exceeds gamma_max={gmax}")


class TsengOutput(NamedTuple):
    z_prev: np.ndarray
    z_next: np.ndarray
    z_tilde: np.ndarray
    eps: float          # ||z_prime - z_tilde||^2/(4 eta) of the last step
    inner_iters: int


def tseng_step(p: TsengProblem, z_hat: np.ndarray, z_prev: np.ndarray):
    """One forward-backward-forward step from z_prev.

    z_prime = P_Omega(z_prev); the backward step goes through the
    resolvent of C at parameter gamma/2 (not gamma); the correction
    re-evaluates only the Lipschitz part.  F2 is evaluated once and F1
    twice (at z_prime and at z_tilde).  Without F1 there is no domain to
    project on and no correction: F2 is evaluated at z_prev and z_tilde
    itself is returned as z_next.
    """
    gamma = p.gamma
    F1 = p.F1
    if F1 is None:
        w = (z_hat + z_prev - gamma * p.F2.eval(z_prev)) / 2.0
        z_tilde = p.C.resolvent(gamma / 2.0, w)
        return z_prev, z_tilde, z_tilde
    z_prime = F1.project(z_prev)
    f1_prime = F1.eval(z_prime)
    forward = f1_prime + p.F2.eval(z_prime)
    w = (z_hat + z_prev - gamma * forward) / 2.0
    z_tilde = p.C.resolvent(gamma / 2.0, w)
    z_next = z_tilde - gamma * (F1.eval(z_tilde) - f1_prime)
    return z_prime, z_tilde, z_next


def tseng_solve(p: TsengProblem, z_hat, tau_hat: float, max_inner: int = 1000,
                cert_log: list | None = None) -> TsengOutput:
    """Iterate from z0 = z_hat until the exit test fires.

    Exit test: ||z_prev - z_next||^2 + gamma*||z_prime - z_tilde||^2/(2 eta)
    <= tau_hat.  The start z_hat is the one the inner complexity bound
    assumes.  Without F1, z_prime is z_prev and z_next is z_tilde, so the
    two differences of the test are one vector and one squared norm
    serves both.

    When cert_log is a list, every inner step is certified: stepsize
    lam = gamma, v = (z_prev - z_next)/gamma and eps =
    ||z_prime - z_tilde||^2/(4 eta), the eps of the exit test; the
    implied operator is B plus the strongly monotone prox term
    (1/gamma)(. - z_hat).  The steps are checked as one block when the
    loop ends (on exit, on budget exhaustion, or when a step raises) by
    hpe.verify_hpe_rows, and one certificate per step is appended.  A
    failing step appends the certificates before it and raises
    InvariantViolation naming it, which takes precedence over the error
    that ended the loop.

    A step whose operator output the resolvent rejects (non-finite or of
    the wrong shape) raises ContractViolation naming the inner step.
    """
    if not tau_hat > 0:
        raise ValueError("tau_hat must be positive")
    gamma = p.gamma
    eta = p.F2.eta
    one_difference = p.F1 is None
    z_hat = z = np.asarray(z_hat, dtype=float)
    path, tildes, epsilons = [z], [], []
    try:
        for j in range(1, max_inner + 1):
            try:
                z_prime, z_tilde, z_next = tseng_step(p, z_hat, z)
            except ValueError as exc:
                raise ContractViolation(f"inner step {j}: {exc}") from exc
            d1 = z - z_next
            d1_sq = float(d1.dot(d1))
            if one_difference:
                d2_sq = d1_sq
            else:
                d2 = z_prime - z_tilde
                d2_sq = float(d2.dot(d2))
            eps = d2_sq / (4.0 * eta)
            if cert_log is not None:
                path.append(z_next)
                tildes.append(z_tilde)
                epsilons.append(eps)
            if d1_sq + gamma * d2_sq / (2.0 * eta) <= tau_hat:
                break
            z = z_next
        else:
            raise IterationBudgetExceeded(
                f"inner solver did not reach tau_hat={tau_hat} in {max_inner} steps")
    except Exception:
        # a failed certificate of an earlier step takes precedence
        _certify_block(p, path, tildes, epsilons, cert_log)
        raise
    _certify_block(p, path, tildes, epsilons, cert_log)
    return TsengOutput(z, z_next, z_tilde, eps, j)


def _certify_block(p: TsengProblem, path: list, tildes: list, eps: list,
                   cert_log: list) -> None:
    if not eps:     # no certificate log, or no step completed
        return
    # step j runs from path[j] to path[j + 1]: row j of V is bitwise that
    # step's (z_prev - z_next)/gamma, and its certificate's v is that row
    W = np.array(path)
    V = (W[:-1] - W[1:]) / p.gamma
    ok = verify_hpe_rows(W[:-1], np.array(tildes), V, np.array(eps),
                         p.gamma, p.sigma)
    k = len(eps) if ok.all() else int(ok.argmin())
    cert_log.extend(map(HpeStepCertificate, path[:k], tildes[:k], V[:k],
                        eps[:k], repeat(p.gamma, k), repeat(p.sigma, k)))
    if k < len(eps):
        raise InvariantViolation(f"inner step {k + 1} failed its certificate")
