"""Every small instance through every run-level check: a seeded sweep.

n in 1-6 (seeds 0-49 at n <= 3, 0-14 above), both families, definite
and semidefinite Q, and both stops: 1556 drt runs.  Each converged run
must replay its history (outer_certificates) and meet the paper's three
bounds (envelope) at nearest_zero's d0, read off reference_solution; a
delta-stop run must also end at a KKT point to 1e-5.  TOS runs on every
instance and rFDRS on seeds 0-9, each to a KKT point at 1e-5.

A tiny ||Q|| keeps the typed budget error as its outcome (see
qp.drt_problem): where gamma*||e|| exceeds the box's diameter ||hi - lo||
by more than BUDGET_RATIO, a drt run ends in IterationBudgetExceeded at
max_iter.  The sweep reads that ratio before it solves, and it must
exceed BUDGET_RATIO on three instances and no other: faces semidefinite
n = 1, seeds 7 (8.6e5) and 12 (2.8e4), the BUDGET_CASES, and paper
semidefinite n = 1 seed 7 (1.3e5), which converges; no other instance,
at any n, exceeds 4.2e3.  The BUDGET_CASES' drt runs are left to
tests/test_drt.py, which pins their budget error; their baselines run
here, and anywhere else a budget error is a fault.
"""

import numpy as np
import pytest

from drsplit.baselines import run_baseline
from drsplit.bench import initial_point
from drsplit.drs import DrsState, envelope
from drsplit.drt import delta_stop, drt_solve, residual_stop
from drsplit.qp import (drt_problem, faces_instance, generate_instance,
                        kkt_check, nearest_zero, reference_solution)

TOL = 1e-6
# seeds 0-14 above n = 3 keep tier-1's wall within its budget; seeds
# 0-49 pass there too (2400 drt runs)
SEEDS = {n: range(50 if n <= 3 else 15) for n in range(1, 7)}
RFDRS_SEEDS = range(10)     # rFDRS takes up to 1637 steps on faces here
BUDGET_RATIO = 1e4
# (family, definite, n, seed) of every instance above BUDGET_RATIO: the
# two whose drt runs end in the budget error, and one that converges
BUDGET_CASES = [("faces", False, 1, 7), ("faces", False, 1, 12)]
ABOVE_RATIO = BUDGET_CASES + [("paper", False, 1, 7)]
FAMILIES = {"paper": generate_instance, "faces": faces_instance}
STOPS = {"delta": delta_stop, "residual": residual_stop}


def _drt_fault(inst, prob, z0, x_star, stop, worst):
    # what is wrong with the drt run, or None; worst keeps each bound's
    # largest ratio of observed value to bound
    cfg = prob.cfg
    state = DrsState.initial(z0, cfg)
    _, quad = drt_solve(prob, STOPS[stop](TOL), state)
    # envelope replays the history through outer_certificates, which
    # raises unless every row replays its step
    _, d0 = nearest_zero(inst, x_star, cfg.gamma, z0)
    for bound, check in envelope(state, cfg, d0).items():
        if check.violations:
            return f"the {bound} bound fails first at {check.first}"
        worst[bound] = max(worst[bound], *check.worst)
    if stop == "delta" and not kkt_check(inst, quad.x, 1e-5):
        return "quad.x is not a KKT point to 1e-5"
    return None


def _baseline_fault(inst, z0, algo):
    _, solution = run_baseline(inst, algo, TOL, z0=z0, max_iter=10 ** 4)
    return (None if kkt_check(inst, solution, 1e-5) else
            "the solution is not a KKT point to 1e-5")


@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "semidefinite"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_small_instance_passes_every_check(family, definite):
    # every fault is listed, named by its instance and run, before the
    # assertion; a typed error (each is a RuntimeError or a ValueError)
    # raised by a run or a check is a fault of that run
    faults, above = [], []
    worst = dict.fromkeys(("pointwise", "ergodic", "null-step"), 0.0)
    for n, seeds in SEEDS.items():
        for seed in seeds:
            inst = FAMILIES[family](n, definite, seed)
            z0 = initial_point(n, seed)
            prob = drt_problem(inst, z0, tol=TOL)
            case = (family, definite, n, seed)
            if (prob.cfg.gamma * np.linalg.norm(inst.e)
                    > BUDGET_RATIO * np.linalg.norm(inst.hi - inst.lo)):
                above.append(case)
            x_star = reference_solution(inst)
            runs = ([] if case in BUDGET_CASES else
                    [("drt", stop) for stop in STOPS]) + [("tos", None)]
            if seed in RFDRS_SEEDS:
                runs.append(("rfdrs", None))
            for algo, stop in runs:
                try:
                    fault = (_drt_fault(inst, prob, z0, x_star, stop, worst)
                             if algo == "drt" else
                             _baseline_fault(inst, z0, algo))
                except (RuntimeError, ValueError) as exc:
                    fault = f"{type(exc).__name__}: {exc}"
                if fault is not None:
                    faults.append(f"n={n} seed={seed} {algo} {stop or ''}: "
                                  f"{fault}")
    print(f"worst envelope ratios ({family}, "
          f"{'definite' if definite else 'semidefinite'}): "
          + ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))
    assert faults == []
    assert above == [case for case in ABOVE_RATIO
                     if case[:2] == (family, definite)]
