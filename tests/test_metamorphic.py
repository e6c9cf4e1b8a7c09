"""Metamorphic relations of the QP family: each transforms an instance into
one whose drt run, TOS solution and zero-set distance d0 are known from
the original's, so the checks need no reference solution of their own.

- K -> -K: null(K) and the problem are unchanged, and every product with
  K changes sign twice, so the runs agree bitwise.
- (e, z0) -> (-e, -z0) on a box symmetric about 0: the problem is
  mirrored, and every iterate is negated exactly (a zero entry may come
  out as -0.0 in one run and 0.0 in the other).
- a coordinate permutation: the same run in another summation order, so
  the step kinds and inner totals agree and the points agree to 1e-12.
"""

import numpy as np
import pytest

from drsplit.baselines import run_baseline
from drsplit.bench import initial_point
from drsplit.drs import DrsState, outer_certificates
from drsplit.drt import delta_stop, drt_solve
from drsplit.qp import (QpInstance, drt_problem, faces_instance,
                        generate_instance, nearest_zero, reference_solution)

N = 20
SEEDS = range(4)


def _rebuilt(inst, Q=None, e=None, K=None, lo=None, hi=None):
    # the instance with some of its arrays replaced
    def pick(new, old):
        return old if new is None else new

    return QpInstance(Q=pick(Q, inst.Q), e=pick(e, inst.e), K=pick(K, inst.K),
                      lo=pick(lo, inst.lo), hi=pick(hi, inst.hi),
                      definite=inst.definite, seed=inst.seed)


def _runs(inst, z0):
    # the drt run with its inner certificates, the TOS solution and d0
    prob = drt_problem(inst, z0, tol=1e-6)
    state = DrsState.initial(z0, prob.cfg)
    inner = []
    drt_solve(prob, delta_stop(1e-6), state, inner_cert_log=inner)
    _, tos = run_baseline(inst, "tos", 1e-6, z0=z0)
    _, d0 = nearest_zero(inst, reference_solution(inst), prob.cfg.gamma, z0)
    return state, prob.cfg, inner, tos, d0


def _points(state, cfg, inner):
    # every point of a run: iterates, the outer and inner certificates
    points = [state.z]
    for name in ("hist_z_prev", "hist_x", "hist_y", "hist_a", "hist_b"):
        points += getattr(state, name)
    for cert in outer_certificates(state, cfg) + inner:
        points += [cert.z_prev, cert.z_tilde, cert.v]
    return points


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("definite", [True, False])
@pytest.mark.parametrize("family", [generate_instance, faces_instance])
def test_negating_k_changes_nothing(family, definite):
    for seed in SEEDS:
        inst = family(N, definite, seed)
        z0 = initial_point(N, seed)
        state, cfg, inner, tos, d0 = _runs(inst, z0)
        state2, cfg2, inner2, tos2, d02 = _runs(_rebuilt(inst, K=-inst.K), z0)
        assert state2.trace == state.trace
        assert _bits(_points(state2, cfg2, inner2)) == \
            _bits(_points(state, cfg, inner))
        assert [c.eps for c in inner2] == [c.eps for c in inner]
        assert tos2.tobytes() == tos.tobytes()
        assert d02 == d0


@pytest.mark.parametrize("definite", [True, False])
def test_mirroring_a_faces_instance_negates_every_point(definite):
    # the faces box [-5, 5] is symmetric about 0
    for seed in SEEDS:
        inst = faces_instance(N, definite, seed)
        z0 = initial_point(N, seed)
        state, cfg, inner, tos, d0 = _runs(inst, z0)
        state2, cfg2, inner2, tos2, d02 = _runs(_rebuilt(inst, e=-inst.e),
                                                -z0)
        assert state2.trace == state.trace
        pairs = zip(_points(state2, cfg2, inner2), _points(state, cfg, inner))
        assert all(np.array_equal(p2, -p) for p2, p in pairs)
        assert [c.eps for c in inner2] == [c.eps for c in inner]
        assert np.array_equal(tos2, -tos)
        assert d02 == d0


@pytest.mark.parametrize("definite", [True, False])
@pytest.mark.parametrize("family", [generate_instance, faces_instance])
def test_permuting_coordinates_keeps_the_run(family, definite):
    rng = np.random.default_rng(19)
    for seed in SEEDS:
        inst = family(N, definite, seed)
        z0 = initial_point(N, seed)
        p = rng.permutation(N)
        state, _, _, tos, d0 = _runs(inst, z0)
        state2, _, _, tos2, d02 = _runs(
            _rebuilt(inst, Q=inst.Q[np.ix_(p, p)], e=inst.e[p], K=inst.K[p],
                     lo=inst.lo[p], hi=inst.hi[p]), z0[p])
        assert [t.step for t in state2.trace] == [t.step for t in state.trace]
        assert sum(t.inner for t in state2.trace) == \
            sum(t.inner for t in state.trace)
        assert np.max(np.abs(state2.last.x - state.last.x[p])) <= 1e-12
        assert np.max(np.abs(tos2 - tos[p])) <= 1e-12
        assert d02 == pytest.approx(d0, rel=1e-12)
