"""Correctness gate: KKT check of solution blocks and certificate replay."""

import numpy as np

from drsbench.gates import Gate, Solve, replay_certificates
from drsbench.workloads import SIGMA, THETA, TOL, faces_instance
from drsplit import bench, drs, drt, qp


def _paper_solves(n=10, seed=5):
    spec = bench.BenchSpec(n=n, instances=1, algo="drt", seed=seed)
    res = bench.run_single(spec, 0)
    tos = bench.run_single(bench.BenchSpec(n=n, instances=1, algo="tos",
                                           seed=seed), 0)
    inst = qp.generate_instance(n, True, seed)
    return inst, [Solve("drt", 0, res.record, res.solution),
                  Solve("tos", 0, tos.record, tos.solution)]


def test_perturbed_solution_block_counts_as_failed():
    inst, solves = _paper_solves()
    gate = Gate(lambda i: inst)
    assert gate.judge(solves) == 0
    bad = solves[0].solution.copy()
    bad[3] += 1e-2
    assert gate.judge([Solve("drt", 0, solves[0].record, bad),
                       solves[1]]) == 1
    assert (gate.attempted, gate.failed) == (4, 1)
    assert gate.failed / gate.attempted == 0.25


def test_raised_and_uncertified_solves_fail_without_a_check():
    inst, solves = _paper_solves()
    calls = []
    gate = Gate(lambda i: calls.append(i) or inst)
    failed = gate.judge([Solve("raised", -1, None, None),
                         Solve("drt", 0, solves[0].record, solves[0].solution,
                               certified=False)])
    assert failed == 2 and calls == []


def _faces_run(n=12, seed=4):
    inst = faces_instance(n, seed)
    z0 = bench.initial_point(n, seed)
    ops = qp.qp_operators(inst)
    cfg = drs.DrsConfig(gamma=2.0 * ops.eta * SIGMA ** 2, sigma=SIGMA,
                        theta=THETA, tau0=qp.tau0_default(inst, z0),
                        rho_tol=TOL, eps_tol=TOL)
    prob = drt.DrtProblem(A=ops.A, C=ops.C, F1=ops.F1, F2=ops.F2, cfg=cfg)
    state = drs.DrsState.initial(z0, cfg)
    certs = []
    _, quad = drt.drt_solve(prob, drt.delta_stop(TOL), state=state,
                            inner_cert_log=certs)
    return inst, state, cfg, certs, quad


def test_replay_accepts_genuine_and_rejects_corrupted_certificates():
    inst, state, cfg, certs, quad = _faces_run()
    assert qp.kkt_check(inst, quad.x, 1e-5)
    assert replay_certificates(state, cfg, certs)
    certs[len(certs) // 2] = certs[len(certs) // 2]._replace(eps=1e6)
    assert not replay_certificates(state, cfg, certs)


def test_faces_family_has_free_and_bound_coordinates():
    inst, _, _, _, quad = _faces_run(n=40, seed=9)
    x = quad.x
    free = np.sum((x > inst.lo + 1e-6) & (x < inst.hi - 1e-6))
    assert 0 < free < x.size
    assert np.linalg.norm(x) > 1.0
