"""Pinned per-instance iteration counts of n=100 solves.

The table holds, for instances 0-19 of `drsplit-bench --n 100 --seed 0`
on definite and semidefinite curvature, the drt counts (iters,
extragrad, null, inner, f2_evals) and the tos and rfdrs iteration
counts, and the drt counts of the semidefinite faces instances with
seeds 0-19, solved through the library as the faces-certified-n100
benchmark workload solves them (start `initial_point(100, seed)`, sigma
0.99, theta 0.01, delta stop 1e-6).  Any change to a step size, a
spectral constant, a tolerance or the stopping logic that shifts a
single count fails here.
"""

import pytest

from drsplit.bench import BenchSpec, initial_point, run_batch
from drsplit.drs import DrsConfig
from drsplit.drt import DrtProblem, delta_stop, drt_solve
from drsplit.qp import faces_instance, qp_operators, tau0_default

N, INSTANCES = 100, 20

GOLDEN = {
    ("definite", "drt"): [
        (16, 11, 5, 30, 30), (13, 9, 4, 23, 23), (12, 8, 4, 21, 21),
        (12, 8, 4, 21, 21), (15, 10, 5, 30, 30), (13, 8, 5, 22, 22),
        (13, 8, 5, 23, 23), (13, 8, 5, 22, 22), (16, 11, 5, 30, 30),
        (13, 8, 5, 23, 23), (16, 10, 6, 31, 31), (15, 10, 5, 28, 28),
        (16, 10, 6, 30, 30), (13, 9, 4, 24, 24), (17, 12, 5, 35, 35),
        (16, 9, 7, 31, 31), (12, 8, 4, 22, 22), (16, 11, 5, 30, 30),
        (13, 8, 5, 22, 22), (13, 9, 4, 24, 24),
    ],
    ("definite", "tos"): [
        9, 7, 6, 6, 8, 6, 6, 6, 8, 7,
        7, 7, 7, 7, 7, 7, 6, 7, 6, 7,
    ],
    ("definite", "rfdrs"): [
        6, 6, 6, 5, 7, 6, 6, 6, 5, 6,
        6, 7, 7, 6, 8, 6, 6, 6, 7, 6,
    ],
    ("semidefinite", "drt"): [
        (15, 12, 3, 32, 32), (17, 13, 4, 37, 37), (16, 12, 4, 33, 33),
        (15, 11, 4, 29, 29), (15, 12, 3, 32, 32), (15, 11, 4, 29, 29),
        (18, 13, 5, 36, 36), (18, 13, 5, 36, 36), (17, 14, 3, 34, 34),
        (17, 13, 4, 34, 34), (15, 12, 3, 32, 32), (18, 14, 4, 35, 35),
        (16, 11, 5, 33, 33), (18, 14, 4, 39, 39), (17, 13, 4, 37, 37),
        (17, 13, 4, 37, 37), (17, 14, 3, 37, 37), (15, 12, 3, 29, 29),
        (16, 12, 4, 32, 32), (17, 14, 3, 39, 39),
    ],
    ("semidefinite", "tos"): [
        11, 12, 11, 10, 11, 11, 12, 13, 12, 13,
        11, 13, 10, 13, 12, 13, 14, 10, 11, 14,
    ],
    ("semidefinite", "rfdrs"): [
        11, 12, 12, 10, 12, 11, 12, 13, 13, 13,
        10, 12, 10, 13, 12, 12, 13, 11, 12, 13,
    ],
    ("faces", "drt"): [
        (195, 185, 10, 2280, 2280), (172, 162, 10, 1864, 1864),
        (128, 118, 10, 1361, 1361), (137, 128, 9, 1440, 1440),
        (165, 156, 9, 1992, 1992), (172, 162, 10, 1635, 1635),
        (257, 248, 9, 2437, 2437), (300, 291, 9, 3324, 3324),
        (114, 105, 9, 1201, 1201), (179, 170, 9, 1673, 1673),
        (210, 200, 10, 1457, 1457), (121, 112, 9, 1078, 1078),
        (170, 160, 10, 1706, 1706), (176, 167, 9, 1952, 1952),
        (142, 133, 9, 1432, 1432), (190, 181, 9, 1949, 1949),
        (215, 205, 10, 2282, 2282), (153, 143, 10, 1526, 1526),
        (147, 138, 9, 1599, 1599), (252, 243, 9, 2737, 2737),
    ],
}


def _counts(rec):
    if rec.algo == "drt":
        return (rec.iters, rec.extragrad, rec.null, rec.inner, rec.f2_evals)
    return rec.iters


def _faces_record(seed, sigma=0.99, tol=1e-6):
    inst = faces_instance(N, False, seed)
    ops = qp_operators(inst)
    z0 = initial_point(N, seed)
    cfg = DrsConfig(gamma=2.0 * ops.eta * sigma ** 2, sigma=sigma,
                    theta=0.01, tau0=tau0_default(inst, z0), rho_tol=tol,
                    eps_tol=tol)
    prob = DrtProblem(A=ops.A, C=ops.C, F1=ops.F1, F2=ops.F2, cfg=cfg)
    return drt_solve(prob, delta_stop(tol), z0=z0)[0]


@pytest.mark.parametrize("kind,algo", sorted(GOLDEN))
def test_batch_counts_match_pinned_table(kind, algo):
    if kind == "faces":
        records = [_faces_record(seed) for seed in range(INSTANCES)]
    else:
        records = run_batch(BenchSpec(n=N, instances=INSTANCES,
                                      definite=(kind == "definite"),
                                      algo=algo, seed=0))
    assert [r.error for r in records] == [None] * INSTANCES
    assert [_counts(r) for r in records] == GOLDEN[(kind, algo)]
