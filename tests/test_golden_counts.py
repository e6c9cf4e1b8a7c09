"""Pinned per-instance iteration counts of the n=100 benchmark batch.

The table holds, for instances 0-19 of `drsplit-bench --n 100 --seed 0`
on definite and semidefinite curvature, the drt counts (iters,
extragrad, null, inner, f2_evals) and the tos and rfdrs iteration
counts.  Any change to a step size, a spectral constant, a tolerance or
the stopping logic that shifts a single count fails here.
"""

import pytest

from drsplit.bench import BenchSpec, run_batch

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
}


def _counts(rec):
    if rec.algo == "drt":
        return (rec.iters, rec.extragrad, rec.null, rec.inner, rec.f2_evals)
    return rec.iters


@pytest.mark.parametrize("kind,algo", sorted(GOLDEN))
def test_batch_counts_match_pinned_table(kind, algo):
    spec = BenchSpec(n=N, instances=INSTANCES,
                     definite=(kind == "definite"), algo=algo, seed=0)
    records = run_batch(spec)
    assert [r.error for r in records] == [None] * INSTANCES
    assert [_counts(r) for r in records] == GOLDEN[(kind, algo)]
