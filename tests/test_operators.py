import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.operators import (
    AffineMonotone,
    BoxNormalCone,
    CocoerciveMap,
    EnlargementTriple,
    LipschitzMap,
    NullspaceNormalCone,
    cocoercive_enlargement,
    project_nullspace,
    slack,
    transport_ergodic,
)
from drsplit.errors import InvariantViolation


def test_slack_scales_with_magnitude():
    assert slack(0.0) == 1e-10
    assert slack(1.0) == 2e-10
    assert slack(-3.0) == 4e-10


def test_project_nullspace_hand_example():
    K = np.array([1.0, -1.0])
    z = np.array([3.0, 1.0])
    p = project_nullspace(K, z)
    assert_allclose(p, [2.0, 2.0])
    assert abs(K @ p) < 1e-14


def test_project_nullspace_idempotent_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        K = rng.integers(0, 2, n) * 2.0 - 1.0
        z = rng.standard_normal(n) * 4.0
        p = project_nullspace(K, z)
        assert abs(K @ p) <= 1e-12 * (1 + np.linalg.norm(z))
        assert_allclose(project_nullspace(K, p), p, atol=1e-13)
        # residual is parallel to K
        r = z - p
        assert_allclose(r, (K @ r / n) * K, atol=1e-13)


def test_project_nullspace_requires_sign_vector():
    with pytest.raises(ValueError):
        project_nullspace(np.array([2.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        project_nullspace(np.ones(3), np.zeros(2))


def test_resolvent_box_projects_and_reconstructs():
    z = np.array([-1.0, 5.0, 12.0])
    x, u = BoxNormalCone(np.zeros(3), 10.0 * np.ones(3)).resolvent(2.0, z)
    assert_array_equal(x, [0.0, 5.0, 10.0])
    # gamma*u + x = z exactly at this data, u signs match the active faces
    assert_array_equal(2.0 * u + x, z)
    assert u[0] < 0 and u[1] == 0 and u[2] > 0


def test_resolvent_box_scaling_invariance():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(6) * 8.0
    op = BoxNormalCone(np.zeros(6), 10.0 * np.ones(6))
    x1, _ = op.resolvent(0.3, z)
    x2, _ = op.resolvent(5.0, z)
    assert_array_equal(x1, x2)


def test_resolvent_box_rejects_bad_input():
    with pytest.raises(ValueError):
        BoxNormalCone(np.zeros(2), np.ones(2)).resolvent(0.0, np.zeros(2))
    with pytest.raises(ValueError):
        BoxNormalCone(np.ones(2), np.zeros(2))


def test_box_normal_cone_resolvent_and_dim_check():
    op = BoxNormalCone(np.zeros(3), 10.0 * np.ones(3))
    x, u = op.resolvent(1.5, np.array([-2.0, 4.0, 11.0]))
    assert_array_equal(x, [0.0, 4.0, 10.0])
    assert_array_equal(1.5 * u + x, [-2.0, 4.0, 11.0])
    with pytest.raises(ValueError):
        op.resolvent(1.0, np.zeros(4))


def test_cone_constructors_reject_bad_data():
    # the cones check lo/hi and K once, here, and not per resolvent
    with pytest.raises(ValueError):
        BoxNormalCone(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        NullspaceNormalCone(np.array([1.0, 0.5, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cone_resolvents_reject_non_finite_points(bad):
    z = np.array([1.0, bad, 3.0])
    with pytest.raises(ValueError):
        BoxNormalCone(np.zeros(3), 10.0 * np.ones(3)).resolvent(1.0, z)
    with pytest.raises(ValueError):
        NullspaceNormalCone(np.array([1.0, -1.0, 1.0])).resolvent(1.0, z)


def test_cone_resolvents_match_module_functions_bitwise():
    # the box output is an exact graph point with u = (z - x)/gamma bit
    # for bit; the nullspace resolvent matches project_nullspace bit for bit
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        lo = rng.uniform(-5.0, 0.0, n)
        hi = lo + rng.uniform(0.0, 5.0, n)
        K = rng.integers(0, 2, n) * 2.0 - 1.0
        z = rng.standard_normal(n) * 6.0
        gamma = float(rng.uniform(0.1, 3.0))
        box = BoxNormalCone(lo, hi)
        x, u = box.resolvent(gamma, z)
        assert box.contains(EnlargementTriple(x, u, 0.0))
        assert_array_equal(x, np.clip(z, lo, hi))
        assert_array_equal(u, (z - x) / gamma)
        # the division and the product round, so the identity holds to ulps
        assert_allclose(gamma * u + x, z, rtol=1e-15, atol=1e-14)
        y, a = NullspaceNormalCone(K).resolvent(gamma, z)
        y_ref = project_nullspace(K, z)
        assert_array_equal(y, y_ref)
        assert_array_equal(a, (z - y_ref) / gamma)


def test_nullspace_normal_cone_resolvent():
    K = np.array([1.0, 1.0, -1.0])
    op = NullspaceNormalCone(K)
    z = np.array([1.0, 2.0, 3.0])
    for gamma in (0.25, 1.0, 4.0):
        y, a = op.resolvent(gamma, z)
        assert abs(K @ y) < 1e-12
        assert_allclose(gamma * a + y, z, atol=1e-14)
        # a is normal to the nullspace, i.e. a multiple of K
        assert_allclose(a, (K @ a / 3.0) * K, atol=1e-13)


def test_nullspace_graph_membership_check():
    K = np.ones(3)
    op = NullspaceNormalCone(K)
    y, a = op.resolvent(1.0, np.array([0.3, -1.2, 4.0]))
    assert op.contains(EnlargementTriple(y, a, 0.0))
    # off M, or a normal not along K, is outside at any eps
    assert not op.contains(EnlargementTriple(y + 1e-6, a, 100.0))
    assert not op.contains(EnlargementTriple(y, a + [1e-6, 0, 0], 100.0))


def test_box_contains_detects_outsiders():
    op = BoxNormalCone(np.zeros(2), 10.0 * np.ones(2))
    good_x, good_u = op.resolvent(1.0, np.array([-3.0, 5.0]))
    assert op.contains(EnlargementTriple(good_x, good_u, 0.0))
    # interior point with a large normal element is not in the graph
    bad = EnlargementTriple(np.array([5.0, 5.0]), np.array([-3.0, 0.0]), 0.0)
    assert not op.contains(bad)
    # a generous eps absorbs the violation (the gap is exactly 15)
    assert op.contains(EnlargementTriple(bad.z, bad.v, 100.0))
    assert not op.contains(EnlargementTriple(bad.z, bad.v, 14.9))
    # a sign-flipped normal fails; a point off the box fails at any eps
    assert not op.contains(EnlargementTriple(good_x, -good_u, 0.0))
    assert not op.contains(EnlargementTriple(np.array([-1e-6, 5.0]),
                                             np.zeros(2), 100.0))


def test_affine_monotone_resolvent_solves_system():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    W = M.T @ M + np.eye(4)
    c = rng.standard_normal(4)
    op = AffineMonotone(W, c)
    z = rng.standard_normal(4)
    x, v = op.resolvent(0.7, z)
    assert_allclose(v, W @ x + c, atol=1e-12)
    assert_allclose(x + 0.7 * v, z, atol=1e-12)
    assert_allclose(op(z), W @ z + c, atol=1e-14)


def test_lipschitz_map_zero_and_validation():
    f = LipschitzMap(eval=np.zeros_like, L=0.0)
    z = np.array([1.0, -2.0])
    assert_array_equal(f.eval(z), [0.0, 0.0])
    assert_array_equal(f.project(z), z)
    assert f.L == 0.0
    with pytest.raises(ValueError):
        LipschitzMap(eval=np.zeros_like, L=-1.0)


def test_cocoercive_map_validation():
    with pytest.raises(ValueError):
        CocoerciveMap(eval=lambda z: z, eta=0.0)


def test_cocoercive_enlargement_formula_and_inequality():
    F = CocoerciveMap(eval=lambda z: z, eta=1.0)
    z_t = np.array([1.0, 0.0])
    z_e = np.array([2.0, 2.0])
    tr = cocoercive_enlargement(F, z_e, z_t)
    assert_array_equal(tr.z, z_t)
    assert_array_equal(tr.v, z_e)
    assert tr.eps == pytest.approx(np.sum((z_e - z_t) ** 2) / 4.0)
    # the defining inequality <z - s, v - F(s)> >= -eps, sampled
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = rng.standard_normal(2) * 5.0
        assert (tr.z - s) @ (tr.v - s) >= -tr.eps - 1e-12


def test_cocoercive_enlargement_property_loop():
    # eps certifies membership for F(z) = Qz + e against random graph points
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 5))
    Q = M.T @ M / 5.0
    e = rng.standard_normal(5)
    eta = 1.0 / np.linalg.norm(Q, 2)
    F = CocoerciveMap(eval=lambda z: Q @ z + e, eta=eta)
    for _ in range(200):
        z_t = rng.standard_normal(5) * 3.0
        z_e = z_t + rng.standard_normal(5)
        tr = cocoercive_enlargement(F, z_e, z_t)
        s = rng.standard_normal(5) * 3.0
        gap = (tr.z - s) @ (tr.v - (Q @ s + e))
        assert gap >= -tr.eps - 1e-10 * (1 + abs(gap))


def test_transport_ergodic_mirrored_pair():
    a = EnlargementTriple(np.array([1.0]), np.array([1.0]), 0.0)
    b = EnlargementTriple(np.array([-1.0]), np.array([-1.0]), 0.0)
    out = transport_ergodic([a, b], [0.5, 0.5])
    assert_allclose(out.z, [0.0])
    assert_allclose(out.v, [0.0])
    assert out.eps == pytest.approx(1.0)


def test_transport_ergodic_single_triple_is_identity():
    t = EnlargementTriple(np.array([2.0, 3.0]), np.array([-1.0, 0.5]), 0.25)
    out = transport_ergodic([t], [1.0])
    assert_allclose(out.z, t.z)
    assert_allclose(out.v, t.v)
    assert out.eps == pytest.approx(0.25)


def test_transport_ergodic_weight_validation():
    t = EnlargementTriple(np.zeros(1), np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        transport_ergodic([], [])
    with pytest.raises(ValueError):
        transport_ergodic([t, t], [1.0])
    with pytest.raises(ValueError):
        transport_ergodic([t, t], [0.6, 0.6])
    with pytest.raises(ValueError):
        transport_ergodic([t, t], [1.5, -0.5])


def test_transport_ergodic_rejects_structurally_negative_eps():
    # antitone pair: correlation term is -1 per triple, eps cannot cover it
    a = EnlargementTriple(np.array([1.0]), np.array([-1.0]), 0.0)
    b = EnlargementTriple(np.array([-1.0]), np.array([1.0]), 0.0)
    with pytest.raises(InvariantViolation):
        transport_ergodic([a, b], [0.5, 0.5])


def test_transport_ergodic_nonnegative_for_monotone_data():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        M = rng.standard_normal((n, n))
        W = M.T @ M
        Z = rng.standard_normal((m, n))
        triples = [EnlargementTriple(z, W @ z, float(rng.random()))
                   for z in Z]
        w = rng.random(m) + 1e-3
        out = transport_ergodic(triples, w / w.sum())
        assert out.eps >= 0.0
