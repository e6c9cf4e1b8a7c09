"""Tseng forward-backward solver for the strongly monotone subproblem.

Given B = C + F1 + F2 (cone + Lipschitz + cocoercive) and a prox center
z_hat, the loop approximates the resolvent inclusion
0 in B(z) + (1/gamma)(z - z_hat) to a tolerance tau_hat, evaluating the
cocoercive component once per iteration.  Every step carries a
relative-error certificate with stepsize gamma, which is what makes the
outer splitting loop accept its output.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded)
from .hpe import HpeStepCertificate, verify_hpe_rows
from .operators import (AffineCocoerciveMap, BoxNormalCone, CocoerciveMap,
                        LipschitzMap, SplittableOperator, _integral)

__all__ = [
    "TsengProblem",
    "gamma_max",
    "tseng_step",
    "tseng_solve",
    "CertBlock",
]

# the bound on |w| that trust_radius keeps: far enough below the largest
# double (1.8e308) that round-off in forming w cannot carry it over
TRUST_BOUND = 1e300


def _norm(a) -> float:
    # np.vdot, unlike .dot, does not warn when the square overflows to inf
    return math.sqrt(np.vdot(a, a))


def gamma_max(eta: float, L: float, sigma: float) -> float:
    """Largest admissible stepsize: 4*eta*sigma^2/(1 + sqrt(1 + 16 L^2 eta^2 sigma^2)).

    Collapses to 2*eta*sigma^2 when L = 0, and at eta = inf (F2 = 0) is the
    limit, sigma/L, or inf when L = 0 too.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not L >= 0:
        raise ValueError("L must be >= 0")
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0, 1)")
    eta, L, sigma = float(eta), float(L), float(sigma)  # ** raises on overflow
    with suppress(OverflowError):
        g = 4.0 * eta * sigma ** 2 / (1.0 + math.sqrt(1.0 + 16.0 * L ** 2 * eta ** 2 * sigma ** 2))
        if g > 0:
            return g
    # a square or the root overflowed, or eta = inf: the same quotient with
    # both terms divided by 4 eta sigma, so that nothing is squared
    t = 0.25 / eta / sigma
    return sigma / (t + math.hypot(t, L)) if t or L else math.inf


@dataclass(frozen=True)
class TsengProblem:
    """The part of the subproblem that is fixed for a whole solve.

    F1 is None when there is no Lipschitz term.  Built and validated once;
    the prox center z_hat and the tolerance tau_hat change from call to
    call and are passed to tseng_step / tseng_solve.  When F1 is None and
    F2 is an AffineCocoerciveMap (Q, e), the half-step's matrix
    G = (I - gamma Q)/2 and vector h = gamma e/2 are built here, once;
    otherwise both are None and the step evaluates F2.

    When, in addition, C is a BoxNormalCone [lo, hi], trust_radius is
    R = min(1e150 - ||r||, (TRUST_BOUND - ||h||)/(||G||_F + 1/2)) with
    r = max(|lo|, |hi|), or 0.0 if ||r|| is not below R (and on any other
    problem).  A solve from ||z_hat|| < R meets only points z with
    ||z|| < R (z_hat and box points), so each entry and partial sum of
    w = G z + c stays below (||G||_F + 1/2) R + ||h|| <= TRUST_BOUND, and
    each step is shorter than R + ||r|| <= 1e150, so its square is finite.
    An affine F2 whose dimension is not C's raises ValueError.
    """

    C: SplittableOperator
    F1: LipschitzMap | None
    F2: CocoerciveMap
    gamma: float
    sigma: float
    G: np.ndarray | None = field(init=False, compare=False, repr=False)
    h: np.ndarray | None = field(init=False, compare=False, repr=False)
    trust_radius: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        L = 0.0 if self.F1 is None else self.F1.L
        gmax = gamma_max(self.F2.eta, L, self.sigma)
        # allow round-off at the boundary gamma == gamma_max
        if self.gamma > gmax * (1.0 + 1e-12):
            raise ValueError(f"gamma={self.gamma} exceeds gamma_max={gmax}")
        affine = isinstance(self.F2, AffineCocoerciveMap)
        if affine and self.F2.e.size != self.C.dim:
            raise ValueError(f"F2 has dimension {self.F2.e.size}, "
                             f"C has dimension {self.C.dim}")
        G = h = None
        radius = 0.0
        if self.F1 is None and affine:
            G = (np.eye(self.C.dim) - self.gamma * self.F2.Q) / 2.0
            h = self.gamma * self.F2.e / 2.0
            if isinstance(self.C, BoxNormalCone):
                r = _norm(np.maximum(np.abs(self.C.lo), np.abs(self.C.hi)))
                q = (TRUST_BOUND - _norm(h)) / (_norm(G) + 0.5)
                if r < q and r < 1e150 - r:     # False for a NaN q
                    radius = min(q, 1e150 - r)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "trust_radius", radius)


def tseng_step(p: TsengProblem, z_hat: np.ndarray, z_prev: np.ndarray,
               c: np.ndarray | None = None, trusted: bool = False):
    """One forward-backward-forward step from z_prev.

    z_prime = P_Omega(z_prev); the backward step goes through the
    resolvent of C at parameter gamma/2 (not gamma); the correction
    re-evaluates only the Lipschitz part.  F2 is evaluated once and F1
    twice (at z_prime and at z_tilde).  Without F1 there is no domain to
    project on and no correction: F2 is evaluated at z_prev and z_tilde
    itself is returned as z_next.

    Without F1 and with an affine F2 (p.G set), the resolvent's argument
    (z_hat + z_prev - gamma F2(z_prev))/2 is formed as G z_prev + c with
    c = z_hat/2 - h, bitwise (z_hat - gamma e)/2; it agrees with the
    generic form to round-off.  c depends only on z_hat, so tseng_solve
    forms it once per solve and passes it; a caller that omits it gets it
    formed here.  trusted=True, which tseng_solve passes when ||z_hat|| is
    below p.trust_radius, calls the box projection without its point
    check; a caller that has not tested that bound leaves it False.
    """
    gamma = p.gamma
    G = p.G
    if G is not None:
        if c is None:
            c = z_hat * 0.5 - p.h
        w = G.dot(z_prev)
        w += c
        if trusted:
            z_tilde = p.C.resolvent(gamma / 2.0, w, trusted=True)
        else:
            z_tilde = p.C.resolvent(gamma / 2.0, w)
        return z_prev, z_tilde, z_tilde
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


# pending rows at which a block is checked when the next solve begins; a
# solve is never split, so a block checked then holds this many rows or
# more, and the one checked on leaving the block may hold fewer
CERT_BLOCK_ROWS = 64


class CertBlock:
    """Inner-step certificates of one or more solves, checked together.

    The one way to certify Tseng steps: open a block (a context manager)
    and pass it to tseng_solve as cert_log.  begin() opens a solve and
    returns the four lists (z_prev, z_tilde, z_next, eps) its steps append
    to, first checking the pending rows when CERT_BLOCK_ROWS or more wait;
    leaving the block checks the rest.  Without F1, z_next is z_tilde, so
    the z_next list stays empty and one stack of z_tilde serves both.
    check() verifies the pending rows in one hpe.verify_hpe_rows pass, with
    v = (z_prev - z_next)/gamma formed for the block (each row bitwise
    that step's own), appends one HpeStepCertificate per row to log, and
    empties the block.  A failing row logs the certificates before it and
    raises InvariantViolation naming its step within its solve and, with a
    label, the solve ("<label> <k>: inner step <j> ...", k counting the
    solves begun in the block).  Raised on leaving, it replaces the error
    that ended the block, which becomes its __context__.
    """

    def __init__(self, p: TsengProblem, log: list, label: str | None = None):
        self.p = p
        self.log = log
        self.label = label
        self.solves = 0
        self._clear()

    def _clear(self) -> None:
        self.prev, self.tildes, self.nexts, self.eps = [], [], [], []
        self.starts = []    # first pending row of each solve, in order

    def __enter__(self) -> CertBlock:
        return self

    def __exit__(self, *exc_info) -> None:
        self.check()

    def begin(self) -> tuple[list, list, list, list]:
        """Start a solve: the rows appended next belong to it."""
        if len(self.eps) >= CERT_BLOCK_ROWS:
            self.check()
        self.solves += 1
        self.starts.append(len(self.eps))
        return self.prev, self.tildes, self.nexts, self.eps

    def check(self) -> None:
        eps = self.eps
        if not eps:
            return
        p, prev, tildes, starts = self.p, self.prev, self.tildes, self.starts
        Z_prev = np.array(prev)
        Z_tilde = np.array(tildes)
        Z_next = Z_tilde if p.F1 is None else np.array(self.nexts)
        V = (Z_prev - Z_next) / p.gamma
        ok = verify_hpe_rows(Z_prev, Z_tilde, V, np.array(eps), p.gamma,
                             p.sigma)
        self._clear()
        k = len(eps) if ok.all() else int(ok.argmin())
        self.log.extend(map(HpeStepCertificate._make,
                            zip(prev[:k], tildes[:k], V[:k], eps[:k],
                                repeat(p.gamma, k), repeat(p.sigma, k))))
        if k < len(eps):
            i = bisect_right(starts, k) - 1     # the solve row k belongs to
            solve = self.solves - len(starts) + 1 + i
            where = "" if self.label is None else f"{self.label} {solve}: "
            raise InvariantViolation(
                f"{where}inner step {k - starts[i] + 1} failed its certificate")


def tseng_solve(p: TsengProblem, z_hat, tau_hat: float, max_inner: int = 1000,
                cert_log: CertBlock | None = None
                ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The B-solve at prox center z_hat: (x, b, eps, inner), b in B^eps(x).

    Iterates from z0 = z_hat (the start the inner complexity bound
    assumes) until the exit test
    ||z_prev - z_next||^2 + gamma*||z_prime - z_tilde||^2/(2 eta) <= tau_hat
    fires, and maps the last step to x = z_tilde, inner = steps taken,
    b = (z_hat + z_prev - (z_next + z_tilde))/gamma and
    eps = ||z_prime - z_tilde||^2/(4 eta).  Then gamma b + x - z_hat is
    z_prev - z_next, so the exit test is the B-solver contract
    ||gamma b + x - z_hat||^2 + 2 gamma eps <= tau_hat that drs_iterate
    checks.  Without F1, z_prime is z_prev and z_next is
    z_tilde, so the two differences of the test are one vector and one
    squared norm serves both.  With p.G set, the step's constant c is
    formed once here.

    A z_hat of another shape than (n,), n = C.dim, or a max_inner that is
    not an integer >= 1 raises ValueError before the first step.  One
    comparison per call, ||z_hat|| < p.trust_radius (see TsengProblem),
    picks unchecked projections and .dot squares, or else checked ones and
    np.vdot, whose overflow to inf does not warn (a NaN, inf or overflowing
    norm fails it); iterates, certificates and errors agree either way.

    With a cert_log, a CertBlock the caller has opened (see there), every
    inner step is certified: stepsize lam = gamma, v = (z_prev - z_next)/gamma
    and the step's eps; the implied operator is B plus the strongly monotone
    prox term (1/gamma)(. - z_hat).  The steps join the block, which checks
    them.

    A step whose operator output the resolvent rejects (non-finite or of
    the wrong shape) raises ContractViolation naming the inner step.
    """
    if not tau_hat > 0:
        raise ValueError("tau_hat must be positive")
    if not _integral(max_inner) or max_inner < 1:
        raise ValueError("max_inner must be an integer >= 1")
    z_hat = z = np.asarray(z_hat, dtype=float)
    n = p.C.dim
    if z_hat.shape != (n,):
        raise ValueError(f"z_hat must have shape ({n},), got {z_hat.shape}")
    gamma = p.gamma
    eta = p.F2.eta
    one_difference = p.F1 is None
    c = None if p.G is None else z_hat * 0.5 - p.h
    trusted = p.trust_radius > 0.0 and _norm(z_hat) < p.trust_radius
    # .dot warns on a square that overflows; np.vdot does not but costs more
    square = np.ndarray.dot if trusted else np.vdot
    if cert_log is not None:
        prev, tildes, nexts, epsilons = cert_log.begin()
    for j in range(1, max_inner + 1):
        try:
            z_prime, z_tilde, z_next = tseng_step(p, z_hat, z, c, trusted)
        except ValueError as exc:
            raise ContractViolation(f"inner step {j}: {exc}") from exc
        d1 = z - z_next
        d1_sq = float(square(d1, d1))
        if one_difference:
            d2_sq = d1_sq
        else:
            d2 = z_prime - z_tilde
            d2_sq = float(square(d2, d2))
        eps = d2_sq / (4.0 * eta)
        if cert_log is not None:
            prev.append(z)
            tildes.append(z_tilde)
            if not one_difference:
                nexts.append(z_next)
            epsilons.append(eps)
        if d1_sq + gamma * d2_sq / (2.0 * eta) <= tau_hat:
            break
        z = z_next
    else:
        raise IterationBudgetExceeded(
            f"inner solver did not reach tau_hat={tau_hat} in {max_inner} steps")
    return z_tilde, (z_hat + z - (z_next + z_tilde)) / gamma, eps, j
