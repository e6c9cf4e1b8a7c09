import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.baselines import (
    rfdrs_gamma,
    rfdrs_iterate,
    run_baseline,
    tos_gamma,
    tos_iterate,
)
from drsplit.bench import initial_point
from drsplit.errors import IterationBudgetExceeded
from drsplit.operators import project_nullspace
from drsplit.qp import (QpInstance, estimate_beta_V, faces_instance,
                        generate_instance, qp_operators, reference_solution)


def _two_dim():
    return QpInstance(Q=np.eye(2), e=np.ones(2), K=np.array([1.0, -1.0]),
                      lo=np.zeros(2), hi=10.0 * np.ones(2),
                      definite=True, seed=-1)


def test_configs_from_instance():
    inst = generate_instance(8, True, 2)
    t = tos_gamma(inst)
    r = rfdrs_gamma(inst)
    assert t == pytest.approx(1.99 * inst.eta)
    assert r == pytest.approx(1.99 * estimate_beta_V(inst.Q, inst.K))
    # the nullspace-restricted curvature is no larger, so its step is no
    # smaller
    assert r >= t * (1 - 1e-9)


def test_one_eta_per_instance():
    inst = generate_instance(30, True, 9)
    assert inst.eta == qp_operators(inst).eta
    assert tos_gamma(inst) == 1.99 * inst.eta


def test_configs_reject_zero_curvature():
    flat = QpInstance(Q=np.zeros((2, 2)), e=np.ones(2),
                      K=np.array([1.0, 1.0]), lo=np.zeros(2),
                      hi=10.0 * np.ones(2), definite=False, seed=-1)
    with pytest.raises(ValueError):
        tos_gamma(flat)
    with pytest.raises(ValueError):
        rfdrs_gamma(flat)


def test_tos_hand_step_from_origin():
    inst = _two_dim()
    gamma = tos_gamma(inst)
    z1 = tos_iterate(np.zeros(2), inst, gamma)
    # box point 0, gradient e, drift -gamma*e already lies in null(K)
    assert_allclose(z1, [-gamma, -gamma], atol=1e-14)


def test_rfdrs_origin_is_fixed_point():
    inst = _two_dim()
    z1 = rfdrs_iterate(np.zeros(2), inst, rfdrs_gamma(inst))
    assert_allclose(z1, [0.0, 0.0], atol=1e-14)


def test_iterates_are_deterministic_functions():
    inst = generate_instance(6, True, 7)
    z = np.linspace(-2.0, 2.0, 6)
    a = tos_iterate(z, inst, tos_gamma(inst))
    b = tos_iterate(z, inst, tos_gamma(inst))
    assert_allclose(a, b, rtol=0, atol=0)


def test_converged_point_is_fixed():
    inst = generate_instance(10, True, 3)
    for algo, step, gamma in (("tos", tos_iterate, tos_gamma(inst)),
                              ("rfdrs", rfdrs_iterate, rfdrs_gamma(inst))):
        rec, _ = run_baseline(inst, algo, tol=1e-12)
        # re-run to recover the final z: drive a copy by hand
        z = np.zeros(10)
        for _ in range(rec.iters):
            z = step(z, inst, gamma)
        z_next = step(z, inst, gamma)
        assert np.linalg.norm(z_next - z) <= 2e-12


def test_displacement_monotone():
    # averaged fixed-point iterations have nonincreasing step norms
    inst = generate_instance(10, True, 13)
    for step, gamma in ((tos_iterate, tos_gamma(inst)),
                        (rfdrs_iterate, rfdrs_gamma(inst))):
        z = np.full(10, 6.0)
        shifts = []
        for _ in range(200):
            z_new = step(z, inst, gamma)
            shifts.append(np.linalg.norm(z_new - z))
            z = z_new
        for a, b in zip(shifts[50:], shifts[51:]):
            assert b <= a * (1 + 1e-10) + 1e-15


def test_solutions_match_oracle():
    # both schemes against the KKT/fixed-point reference on seeded QPs
    for seed in range(20):
        inst = generate_instance(10, True, seed)
        z_star = reference_solution(inst)
        _, sol_t = run_baseline(inst, "tos", tol=1e-10)
        assert np.max(np.abs(sol_t - z_star)) < 1e-6
        _, sol_r = run_baseline(inst, "rfdrs", tol=1e-10)
        assert np.max(np.abs(sol_r - z_star)) < 1e-5


def test_run_baseline_record_fields():
    inst = generate_instance(8, True, 21)
    rec, sol = run_baseline(inst, "tos", tol=1e-8)
    assert rec.instance == -1   # bench.run_single fills instance and abs_err
    assert rec.algo == "tos"
    assert rec.n == 8
    assert rec.iters >= 1
    assert rec.f2_evals == rec.iters
    assert rec.extragrad == 0 and rec.null == 0 and rec.inner == 0
    assert np.isfinite(rec.residual)
    assert np.isnan(rec.abs_err)
    # solution block lives in the box
    assert np.all(sol >= inst.lo - 1e-12) and np.all(sol <= inst.hi + 1e-12)
    rec2, sol2 = run_baseline(inst, "rfdrs", tol=1e-8)
    assert np.isnan(rec2.abs_err)
    assert abs(inst.K @ sol2) < 1e-10


def test_run_baseline_validation_and_budget():
    inst = generate_instance(5, True, 31)
    with pytest.raises(ValueError):
        run_baseline(inst, "sor", tol=1e-6)
    with pytest.raises(IterationBudgetExceeded):
        run_baseline(inst, "tos", tol=1e-14, max_iter=3,
                     z0=np.full(5, 9.0))


def _textbook_tos(z, inst, gamma):
    xB = np.clip(z, inst.lo, inst.hi)
    xA = project_nullspace(
        inst.K, 2.0 * xB - z - gamma * (inst.Q @ xB + inst.e))
    return z + (xA - xB)


def _textbook_rfdrs(z, inst, gamma):
    x = project_nullspace(inst.K, z)
    g = project_nullspace(inst.K, inst.Q @ x + inst.e)
    w = np.clip(2.0 * x - z - gamma * g, inst.lo, inst.hi)
    return z + (w - x)


@pytest.mark.parametrize("definite", [True, False])
def test_steps_match_textbook_reference_bitwise(definite):
    # the baselines step with the instance's cones and forward map; on an
    # n=100 instance with a sign-mixed e and the box [-5, 5] (optimum on
    # faces and inside the box, so 100+ nontrivial steps to 1e-9) every
    # iterate, the stop and the solution block must equal the textbook
    # formulas' bits
    n, tol = 100, 1e-9
    inst = faces_instance(n, definite, 5)
    z0 = initial_point(n, 5)
    cases = (
        ("tos", tos_iterate, _textbook_tos, tos_gamma(inst),
         lambda z: np.clip(z, inst.lo, inst.hi)),
        ("rfdrs", rfdrs_iterate, _textbook_rfdrs, rfdrs_gamma(inst),
         lambda z: project_nullspace(inst.K, z)),
    )
    for algo, step, textbook, gamma, block in cases:
        z, iters = z0, 0
        while True:
            z_new = textbook(z, inst, gamma)
            assert step(z, inst, gamma).tobytes() == z_new.tobytes()
            resid = float(np.linalg.norm(z_new - z))
            z, iters = z_new, iters + 1
            if resid <= tol:
                break
        assert iters >= 50
        rec, sol = run_baseline(inst, algo, tol=tol, z0=z0)
        assert (rec.iters, rec.residual) == (iters, resid)
        assert sol.tobytes() == block(z).tobytes()
