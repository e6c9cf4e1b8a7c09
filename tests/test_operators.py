import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.operators import (
    BoxNormalCone,
    AffineCocoerciveMap,
    CocoerciveMap,
    LipschitzMap,
    NullspaceNormalCone,
    SplittableOperator,
    _point,
    project_nullspace,
    slack,
)
from drsplit.errors import InvariantViolation
from oracles import (AffineMonotone, EnlargementTriple, box_contains,
                     cocoercive_enlargement, nullspace_contains,
                     transport_ergodic)


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
    op = BoxNormalCone(np.zeros(3), 10.0 * np.ones(3))
    x = op.resolvent(2.0, z)
    assert_array_equal(x, [0.0, 5.0, 10.0])
    # the graph element (z - x)/gamma is in N_X(x): its signs match the
    # active faces
    u = (z - x) / 2.0
    assert box_contains(op, EnlargementTriple(x, u, 0.0))
    assert u[0] < 0 and u[1] == 0 and u[2] > 0


def test_box_normal_cone_resolvent_and_dim_check():
    op = BoxNormalCone(np.zeros(3), 10.0 * np.ones(3))
    x = op.resolvent(1.5, np.array([-2.0, 4.0, 11.0]))
    assert_array_equal(x, [0.0, 4.0, 10.0])
    with pytest.raises(ValueError):
        op.resolvent(1.0, np.zeros(4))


def test_cone_constructors_reject_bad_data():
    # the cones check lo/hi and K once, here, and not per resolvent
    with pytest.raises(ValueError):
        BoxNormalCone(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    # hi is checked as lo is: a NaN hi also passed a lo > hi test
    for bad in (np.nan, np.inf):
        for hi in (np.array([bad, 1.0]), np.array([1.0, bad])):
            with pytest.raises(ValueError):
                BoxNormalCone(np.zeros(2), hi)
    with pytest.raises(ValueError):
        NullspaceNormalCone(np.array([1.0, 0.5, -1.0]))


def test_box_bounds_share_a_shape():
    # hi is not broadcast to lo's shape
    for hi in (1.0, np.ones(1), np.ones(3)):
        with pytest.raises(ValueError):
            BoxNormalCone(np.zeros(2), hi)


def test_a_point_must_be_a_vector():
    # a column, a row or a scalar is not squeezed into a vector
    for bad in (np.zeros((3, 1)), np.zeros((1, 3)), 1.0):
        with pytest.raises(ValueError, match="must be a vector"):
            _point(bad)
    with pytest.raises(ValueError, match="must be a vector"):
        NullspaceNormalCone(np.ones(3)).resolvent(1.0, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="must be a vector"):
        project_nullspace(np.ones((1, 3)), np.zeros(3))


def test_cones_keep_the_data_they_checked():
    # a write into the caller's arrays after construction would otherwise
    # leave the cones projecting onto data their constructors reject
    lo, hi, K = np.zeros(3), np.ones(3), np.array([1.0, -1.0, 1.0])
    box, null = BoxNormalCone(lo, hi), NullspaceNormalCone(K)
    z = np.array([0.5, 2.0, -1.0])
    x_box, x_null = box.resolvent(1.0, z), null.resolvent(1.0, z)
    lo[0], hi[1], K[1] = 5.0, -5.0, 0.5
    assert_array_equal(box.resolvent(1.0, z), x_box)
    assert_array_equal(x_box, [0.5, 1.0, 0.0])
    assert_array_equal(null.resolvent(1.0, z), x_null)


def test_operators_reject_dimension_zero():
    # an empty box or K builds no operator: R^0 has no points to solve for
    for make in (lambda: SplittableOperator(0),
                 lambda: BoxNormalCone(np.zeros(0), np.zeros(0)),
                 lambda: NullspaceNormalCone(np.zeros(0))):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            make()


def test_resolvents_reject_nan_and_nonpositive_gamma():
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    ops = (BoxNormalCone(np.zeros(2), np.ones(2)),
           NullspaceNormalCone(np.array([1.0, -1.0])), AffineMonotone(W))
    for op in ops:
        for gamma in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="gamma"):
                op.resolvent(gamma, np.array([0.5, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cone_resolvents_reject_non_finite_points(bad):
    z = np.array([1.0, bad, 3.0])
    with pytest.raises(ValueError):
        BoxNormalCone(np.zeros(3), 10.0 * np.ones(3)).resolvent(1.0, z)
    with pytest.raises(ValueError):
        NullspaceNormalCone(np.array([1.0, -1.0, 1.0])).resolvent(1.0, z)


def test_point_check_accepts_finite_points_whose_square_overflows():
    # ||z||^2 overflows to inf, so the fast test defers to the exact one,
    # which accepts; no overflow warning escapes
    z = np.array([1e200, -1e200, 3.0, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _point(z) is z
        x = BoxNormalCone(np.full(4, -1e300), np.full(4, 1e300)
                          ).resolvent(1.0, z)
        y = NullspaceNormalCone(np.array([1.0, 1.0, -1.0, 1.0])
                                ).resolvent(1.0, z)
    assert_array_equal(x, z)
    assert np.isfinite(y).all()
    assert_array_equal(z, [1e200, -1e200, 3.0, -1e200])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_point_check_rejects_non_finite_entries_anywhere(bad, where):
    z = np.linspace(-2.0, 2.0, 7)
    z[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _point(z)
    with pytest.raises(ValueError, match="non-finite"):
        BoxNormalCone(np.full(7, -5.0), np.full(7, 5.0)).resolvent(1.0, z)
    with pytest.raises(ValueError, match="non-finite"):
        NullspaceNormalCone(np.ones(7)).resolvent(1.0, z)


@pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (-5.0, 5.0)])
def test_box_projection_is_bitwise_clip(lo, hi):
    # signed zeros, both bounds and their neighbours, subnormals, and
    # points far outside: x equals np.clip bit for bit
    tiny = np.nextafter(0.0, 1.0)
    z = np.array([0.0, -0.0, lo, -lo, hi, -hi, tiny, -tiny, 2.0 * tiny,
                  np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                  np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
                  1e300, -1e300, 1e-300, -1e-300, 3.25, -3.25])
    n = z.size
    lo_v, hi_v = np.full(n, lo), np.full(n, hi)
    gamma = 0.7
    x = BoxNormalCone(lo_v, hi_v).resolvent(gamma, z)
    assert x.tobytes() == np.clip(z, lo_v, hi_v).tobytes()


def test_cone_resolvents_match_module_functions_bitwise():
    # the box output with u = (z - x)/gamma is an exact graph point, and
    # neither resolvent depends on gamma: the box one is np.clip and the
    # nullspace one bitwise project_nullspace, the one at gamma = 1, and
    # the orthogonal projection onto K.z = 0
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        lo = rng.uniform(-5.0, 0.0, n)
        hi = lo + rng.uniform(0.0, 5.0, n)
        K = rng.integers(0, 2, n) * 2.0 - 1.0
        z = rng.standard_normal(n) * 6.0
        gamma = float(rng.uniform(0.1, 5.0))
        box = BoxNormalCone(lo, hi)
        x = box.resolvent(gamma, z)
        assert box_contains(box, EnlargementTriple(x, (z - x) / gamma, 0.0))
        assert_array_equal(x, np.clip(z, lo, hi))
        y = NullspaceNormalCone(K).resolvent(gamma, z)
        assert_array_equal(y, project_nullspace(K, z))
        assert_allclose(y, z - np.outer(K, K) @ z / n, atol=1e-12)


def test_nullspace_graph_membership_check():
    K = np.ones(3)
    op = NullspaceNormalCone(K)
    z = np.array([0.3, -1.2, 4.0])
    y = op.resolvent(1.0, z)
    a = z - y
    assert nullspace_contains(op, EnlargementTriple(y, a, 0.0))
    # off M, or a normal not along K, is outside at any eps
    assert not nullspace_contains(op, EnlargementTriple(y + 1e-6, a, 100.0))
    assert not nullspace_contains(op, EnlargementTriple(y, a + [1e-6, 0, 0],
                                                        100.0))


def test_box_contains_detects_outsiders():
    op = BoxNormalCone(np.zeros(2), 10.0 * np.ones(2))
    z = np.array([-3.0, 5.0])
    good_x = op.resolvent(1.0, z)
    good_u = z - good_x
    assert box_contains(op, EnlargementTriple(good_x, good_u, 0.0))
    # interior point with a large normal element is not in the graph
    bad = EnlargementTriple(np.array([5.0, 5.0]), np.array([-3.0, 0.0]), 0.0)
    assert not box_contains(op, bad)
    # a generous eps absorbs the violation (the gap is exactly 15)
    assert box_contains(op, EnlargementTriple(bad.z, bad.v, 100.0))
    assert not box_contains(op, EnlargementTriple(bad.z, bad.v, 14.9))
    # a sign-flipped normal fails; a point off the box fails at any eps
    assert not box_contains(op, EnlargementTriple(good_x, -good_u, 0.0))
    assert not box_contains(op, EnlargementTriple(np.array([-1e-6, 5.0]),
                                                  np.zeros(2), 100.0))


def test_affine_monotone_resolvent_solves_system():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    W = M.T @ M + np.eye(4)
    c = rng.standard_normal(4)
    op = AffineMonotone(W, c)
    z = rng.standard_normal(4)
    x = op.resolvent(0.7, z)
    # x solves x + 0.7 (W x + c) = z: (z - x)/gamma is the graph element
    assert_allclose((z - x) / 0.7, W @ x + c, atol=1e-12)
    assert_allclose(op(z), W @ z + c, atol=1e-14)


def test_affine_monotone_symmetry_check_has_no_relative_slack():
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    AffineMonotone(W)
    W[0, 1] += 1.5e-6
    with pytest.raises(ValueError, match=r"symmetric to 1e-12\*max\|W\|"):
        AffineMonotone(W)


def test_lipschitz_map_zero_and_validation():
    f = LipschitzMap(eval=np.zeros_like, L=0.0)
    z = np.array([1.0, -2.0])
    assert_array_equal(f.eval(z), [0.0, 0.0])
    assert_array_equal(f.project(z), z)
    assert f.L == 0.0
    with pytest.raises(ValueError):
        LipschitzMap(eval=np.zeros_like, L=-1.0)
    with pytest.raises(ValueError, match="L must"):
        LipschitzMap(eval=np.zeros_like, L=float("nan"))


def test_cocoercive_map_validation():
    with pytest.raises(ValueError):
        CocoerciveMap(eval=lambda z: z, eta=0.0)
    with pytest.raises(ValueError, match="eta must"):
        CocoerciveMap(eval=lambda z: z, eta=float("nan"))
    # F2 = 0 (a Q = 0 instance) is cocoercive with every modulus
    assert CocoerciveMap(eval=np.zeros_like, eta=float("inf")).eta == np.inf


def test_affine_cocoercive_map_is_built_from_q_and_e():
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    e = np.array([1.0, -1.0])
    F = AffineCocoerciveMap(Q=Q, e=e, eta=1.0 / 3.0)
    assert F.Q is Q and F.e is e and F.eta == 1.0 / 3.0
    z = np.array([0.5, -2.0])
    assert_array_equal(F.eval(z), Q.dot(z) + e)
    for bad in (np.nan, np.inf):
        e_bad = e.copy()
        e_bad[1] = bad
        with pytest.raises(ValueError, match="e contains non-finite"):
            AffineCocoerciveMap(Q=Q, e=e_bad, eta=1.0)
        Q_bad = Q.copy()
        Q_bad[0, 1] = bad
        with pytest.raises(ValueError, match="Q contains non-finite"):
            AffineCocoerciveMap(Q=Q_bad, e=e, eta=1.0)
    with pytest.raises(ValueError, match="n x n"):
        AffineCocoerciveMap(Q=np.eye(3), e=e, eta=1.0)
    with pytest.raises(ValueError, match="eta"):
        AffineCocoerciveMap(Q=Q, e=e, eta=float("nan"))
    # eval is derived, never passed
    with pytest.raises(TypeError):
        AffineCocoerciveMap(eval=lambda z: z, Q=Q, e=e, eta=1.0)


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
    for w in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(ValueError):
            transport_ergodic([t, t], w)


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
