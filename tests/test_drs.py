"""Outer relative-error splitting loop: hand runs, contracts, ergodics."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drsplit.drs import (
    EXTRAGRADIENT,
    NULL,
    DrsConfig,
    DrsState,
    Quadruple,
    check_termination,
    _ergodic_averages,
    drs_ergodic,
    drs_iterate,
    drs_solve,
    envelope,
    null_step_bounds,
    outer_certificates,
)
from drsplit.errors import (
    ContractViolation,
    InvariantViolation,
    IterationBudgetExceeded,
    StateError,
)
from drsplit.hpe import ergodic_bound, pointwise_bound, verify_hpe_inequality
from drsplit.operators import NullspaceNormalCone, SplittableOperator
from drsplit.bench import initial_point
from drsplit.drt import delta_stop, drt_solve
from drsplit.qp import (drt_problem, faces_instance, generate_instance,
                        kkt_check, nearest_zero, reference_solution)
from drsplit.tseng import tseng_solve
from oracles import (AffineMonotone, BoxAffineSum, EnlargementTriple,
                     ergodic_prefix, exact_bsolver, transport_ergodic)


def _cfg(**kw):
    base = dict(gamma=1.0, sigma=0.99, theta=0.01, tau0=100.0,
                rho_tol=1e-8, eps_tol=1e-8)
    base.update(kw)
    return DrsConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(gamma=0.0)
    with pytest.raises(ValueError):
        _cfg(sigma=1.0)
    with pytest.raises(ValueError):
        _cfg(sigma=0.0)
    with pytest.raises(ValueError):
        _cfg(theta=1.0)
    with pytest.raises(ValueError):
        _cfg(tau0=0.0)
    with pytest.raises(ValueError):
        _cfg(rho_tol=0.0)
    with pytest.raises(ValueError):
        _cfg(max_iter=0)
    for field in ("gamma", "tau0", "rho_tol", "eps_tol"):
        with pytest.raises(ValueError):
            _cfg(**{field: float("nan")})
    # an infinite gamma or tau0 turns tau into NaN after enough null steps
    for field in ("gamma", "tau0"):
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                _cfg(**{field: bad})
    # with NaN the k >= max_iter budget test never fires
    for bad in (float("nan"), 2.5, float("inf")):
        with pytest.raises(ValueError, match="max_iter"):
            _cfg(max_iter=bad)
    assert _cfg(max_iter=np.int64(5)).max_iter == 5


def test_one_dimensional_exact_run():
    # A the normal cone of {0}, B the identity, gamma 1, z0 = 2: every
    # iterate halves, x = b = z/2, y = a = 0
    cfg = _cfg()
    A = NullspaceNormalCone(np.array([1.0]))
    B = AffineMonotone(np.eye(1))
    state = DrsState.initial(np.array([2.0]), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    expect = [1.0, 0.5, 0.25]
    for k, want in enumerate(expect, start=1):
        drs_iterate(state, cfg, bs, A)
        assert state.k == k
        assert state.trace[-1].step == EXTRAGRADIENT
        assert state.residual == pytest.approx(want, rel=1e-12)
        x, y, a, b, _, eps_b = state.last
        assert x[0] == pytest.approx(want, rel=1e-12)
        assert b[0] == pytest.approx(want, rel=1e-12)
        assert_allclose(y, [0.0], atol=1e-15)
        assert_allclose(a, [0.0], atol=1e-15)
        assert eps_b == 0.0
        assert state.z[0] == pytest.approx(want, rel=1e-12)
    assert state.n_extragradient == 3
    assert state.beta == 0
    assert state.tau == cfg.tau0


def test_exact_bsolver_matches_plain_recursion():
    # with an exact B-resolvent the loop reduces to classical DRS:
    # x = J_gB(z), y = P_M(2x - z), z+ = z - x + y
    inst = generate_instance(6, True, 4)
    gamma = 0.8
    cfg = _cfg(gamma=gamma)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(6, 3.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    z_ref = np.full(6, 3.0)
    for _ in range(25):
        drs_iterate(state, cfg, bs, A)
        x_ref = B.resolvent(gamma, z_ref)
        y_ref = A.resolvent(gamma, 2.0 * x_ref - z_ref)
        z_ref = z_ref - x_ref + y_ref
        assert state.trace[-1].step == EXTRAGRADIENT
        assert_allclose(state.z, z_ref, atol=1e-12)
    assert state.beta == 0


def test_null_step_freezes_z_and_shrinks_tau():
    cfg = _cfg(tau0=100.0, theta=0.1)
    A = NullspaceNormalCone(np.array([1.0, -1.0]))
    z0 = np.array([4.0, 0.0])
    state = DrsState.initial(z0, cfg)

    def sloppy(z_prev, tau):
        # feasible for the tolerance but far from the sigma test: large
        # eps_b forces a null step
        return z_prev.copy(), np.zeros(2), 40.0, 0

    drs_iterate(state, cfg, sloppy, A)
    assert state.trace[-1].step == NULL
    assert state.beta == 1
    assert_allclose(state.z, z0)
    assert state.tau == pytest.approx(cfg.theta * cfg.tau0)
    # trace records the post-update tolerance
    assert state.trace[-1].step == NULL
    assert state.trace[-1].tau == pytest.approx(state.tau)


def test_contract_violation_raises():
    cfg = _cfg(tau0=1e-6)
    A = NullspaceNormalCone(np.array([1.0]))

    def liar(z_prev, tau):
        return z_prev + 5.0, np.zeros(1), 0.0, 0  # lhs 25 >> tau

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg, liar, A)

    def negative_eps(z_prev, tau):
        return z_prev.copy(), np.zeros(1), -1.0, 0

    with pytest.raises(ContractViolation):
        drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg,
                    negative_eps, A)
    for inner in (-1, 1.0, float("nan"), None):
        with pytest.raises(ContractViolation, match=f"inner={inner!r}, not"):
            drs_iterate(DrsState.initial(np.array([2.0]), cfg), cfg,
                        lambda z, tau: (z, np.zeros(1), 0.0, inner), A)


def test_nan_contract_data_fails_on_the_first_call():
    # NaN passes a test written as eps_b < 0 or lhs > tau, and then every
    # step classifies as null until max_iter; both tests reject it at once
    cfg = _cfg(tau0=1.0)
    A = NullspaceNormalCone(np.array([1.0, 1.0]))
    calls = []

    def nan_eps(z_prev, tau):
        calls.append(None)
        return z_prev / 2.0, z_prev / 2.0, float("nan"), 0

    def nan_point(z_prev, tau):
        calls.append(None)
        return np.array([np.nan, 0.0]), np.zeros(2), 0.0, 0

    for bsolver, match in ((nan_eps, "eps_b=nan"), (nan_point, "tolerance")):
        calls.clear()
        state = DrsState.initial(np.array([2.0, 0.0]), cfg)
        with pytest.raises(ContractViolation, match=match):
            drs_iterate(state, cfg, bsolver, A)
        assert len(calls) == 1 and state.k == 0


def test_non_finite_resolvent_of_a_fails_on_the_first_call():
    # a NaN y makes the residual NaN, which no relative-error test
    # rejects: every step would classify as null until max_iter
    class NonFiniteResolvent:
        def __init__(self, bad):
            self.bad = bad

        def resolvent(self, gamma, z):
            return np.full_like(z, self.bad)

    cfg = _cfg(max_iter=5)
    bs = exact_bsolver(AffineMonotone(np.eye(1)), cfg.gamma)
    for bad in (np.nan, np.inf):
        state = DrsState.initial(np.array([2.0]), cfg)
        with pytest.raises(ContractViolation,
                           match=r"^A's resolvent returned a non-finite"):
            drs_iterate(state, cfg, bs, NonFiniteResolvent(bad))
        assert state.k == 0 and state.trace == []


def test_a_resolvent_that_raises_names_the_outer_step():
    # an A-resolvent's ValueError (here on the second call) fails the
    # outer step's contract: run_batch records a ContractViolation as the
    # instance's error row, where a bare ValueError would escape it; the
    # state stays as the first step left it
    class RejectsSecondCall(SplittableOperator):
        calls = 0

        def resolvent(self, gamma, z):
            self.calls += 1
            if self.calls == 2:
                raise ValueError("point contains non-finite entries")
            return z

    cfg = _cfg(max_iter=5)
    bs = exact_bsolver(AffineMonotone(np.eye(1)), cfg.gamma)
    A = RejectsSecondCall(1)
    state = DrsState.initial(np.array([2.0]), cfg)
    drs_iterate(state, cfg, bs, A)
    z, trace = state.z.copy(), list(state.trace)
    with pytest.raises(ContractViolation,
                       match=r"^outer step 2: point contains non-finite "
                             r"entries$"):
        drs_iterate(state, cfg, bs, A)
    assert state.k == 1 and state.trace == trace
    assert_array_equal(state.z, z)


def test_bsolver_output_of_the_wrong_shape_fails_on_the_first_call():
    # x or b of another shape than z broadcasts through the contract and
    # the relative-error test, and a scalar x reaches the ergodic averages
    cfg = _cfg()
    A = NullspaceNormalCone(np.ones(3))
    z0 = np.array([2.0, -1.0, 0.5])
    short = np.array([1.0])
    cases = (
        (lambda z, tau: (short, z - short, 0.0, 0),
         r"\(1,\) and b .* \(3,\)"),
        (lambda z, tau: (1.0, z - 1.0, 0.0, 0), r"\(\) and b .* \(3,\)"),
        (lambda z, tau: (z / 2.0, z[:1] / 2.0, 0.0, 0),
         r"\(3,\) and b .* \(1,\)"),
    )
    for bsolver, shapes in cases:
        state = DrsState.initial(z0, cfg)
        with pytest.raises(ContractViolation,
                           match=r"^outer B-solve call 1: bsolver returned x "
                                 rf"of shape {shapes}, not \(3,\)$"):
            drs_iterate(state, cfg, bsolver, A)
        assert state.k == 0


def test_bsolver_return_that_is_not_four_values_is_a_contract_violation():
    # a B-solver written to the three-value protocol, and returns that do
    # not unpack at all; a ValueError raised inside the B-solver keeps its
    # type
    cfg = _cfg()
    A = NullspaceNormalCone(np.ones(2))
    z0 = np.array([2.0, -1.0])
    cases = (
        (lambda z, tau: (z / 2.0, z / 2.0, 0.0), "tuple", r"got 3"),
        (lambda z, tau: (z / 2.0, z / 2.0, 0.0, 0, 0), "tuple",
         r"expected 4"),
        (lambda z, tau: None, "NoneType", "non-iterable"),
        (lambda z, tau: 1.0, "float", "non-iterable"),
    )
    for bsolver, kind, why in cases:
        state = DrsState.initial(z0, cfg)
        with pytest.raises(ContractViolation,
                           match=r"^outer B-solve call 1: bsolver returned "
                                 rf"a {kind}, not \(x, b, eps_b, inner\): "
                                 rf".*{why}"):
            drs_iterate(state, cfg, bsolver, A)
        assert state.k == 0 and state.trace == []
        assert_array_equal(state.z, z0)

    def raises(z_prev, tau):
        raise ValueError("inner trouble")

    with pytest.raises(ValueError, match="^inner trouble$"):
        drs_iterate(DrsState.initial(z0, cfg), cfg, raises, A)


def test_iteration_budget():
    cfg = _cfg(max_iter=2)
    A = NullspaceNormalCone(np.array([1.0]))
    B = AffineMonotone(np.eye(1))
    state = DrsState.initial(np.array([2.0]), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    drs_iterate(state, cfg, bs, A)
    drs_iterate(state, cfg, bs, A)
    with pytest.raises(IterationBudgetExceeded, match="^max_iter=2 reached$"):
        drs_iterate(state, cfg, bs, A)


@pytest.mark.parametrize("error", [ContractViolation, IterationBudgetExceeded])
def test_exact_steps_take_no_inner_steps_and_errors_name_the_outer_call(error):
    # drs_iterate, not the B-solver, names the outer call that failed
    cfg, A = _cfg(), NullspaceNormalCone(np.array([1.0]))
    state = DrsState.initial(np.array([2.0]), cfg)
    for _ in range(2):
        drs_iterate(state, cfg, exact_bsolver(AffineMonotone(np.eye(1)), cfg.gamma), A)
    assert [t.inner for t in state.trace] == [0, 0]

    def fails(z_prev, tau):
        raise error("inner trouble")

    with pytest.raises(error, match="^outer B-solve call 3: inner trouble$"):
        drs_iterate(state, cfg, fails, A)


@pytest.mark.parametrize("out, what", [
    (lambda z: (z, z), r"bsolver returned a tuple, not \(x, b, eps_b, inner\)"),
    (lambda z: (z[:0], z, 0.0, 0), r"bsolver returned x of shape \(0,\)"),
    (lambda z: (z, 0 * z, -1.0, 0), r"bsolver returned eps_b=-1.0, not >= 0$"),
    (lambda z: (z, 0 * z, 0.0, 1.5), r"bsolver returned inner=1.5, not an "),
    (lambda z: (z + 100.0, 0 * z, 0.0, 0), "bsolver output violates its "
                                           r"tolerance: \d"),
], ids=["arity", "shape", "eps_b", "inner", "tolerance"])
def test_a_bad_return_names_the_outer_call_and_leaves_the_state(out, what):
    # drs_iterate's own checks on the B-solver's return carry the prefix
    # that errors raised inside the B-solver get, and take no step
    cfg, A = _cfg(), NullspaceNormalCone(np.array([1.0]))
    state = DrsState.initial(np.array([2.0]), cfg)
    for _ in range(2):
        drs_iterate(state, cfg, exact_bsolver(AffineMonotone(np.eye(1)),
                                              cfg.gamma), A)
    z, last, trace = state.z, state.last, list(state.trace)
    with pytest.raises(ContractViolation,
                       match=rf"^outer B-solve call 3: {what}"):
        drs_iterate(state, cfg, lambda z_prev, tau: out(z_prev), A)
    assert (state.k, state.beta, state.tau) == (2, 0, cfg.tau0)
    assert state.z is z and state.last is last and state.trace == trace
    assert state.n_extragradient == 2


def test_a_state_runs_its_ladder_from_its_own_tau0():
    # a state started above cfg.tau0 (paper n=20, seed 3, at 1e6 x tau0):
    # a null step takes theta times the state's own start, not cfg.tau0's
    # ladder, and every step after keeps to theta**beta * state.tau0
    inst = generate_instance(20, True, 3)
    z0 = initial_point(20, 3)
    prob = drt_problem(inst, z0, tol=1e-6)
    cfg, tau0 = prob.cfg, 1e6 * prob.cfg.tau0
    state = DrsState(z0, tau0)
    bs = partial(tseng_solve, prob.tseng)
    while state.beta == 0:
        drs_iterate(state, cfg, bs, prob.A)
    assert state.trace[-1].step == NULL
    assert state.tau == cfg.theta * tau0
    for _ in range(20):
        drs_iterate(state, cfg, bs, prob.A)
        assert state.tau == cfg.theta ** state.beta * tau0
    assert state.beta >= 2 and state.tau0 == tau0
    assert DrsState.initial(z0, cfg).tau0 == cfg.tau0


def test_residual_identity_every_step():
    # gamma*||a + b|| = ||x - y|| is enforced inside drs_iterate; verify
    # it independently over a seeded run
    inst = generate_instance(8, True, 9)
    gamma = 0.5
    cfg = _cfg(gamma=gamma)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(8, -2.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    for _ in range(20):
        drs_iterate(state, cfg, bs, A)
        x, y, a, b, _, _ = state.last
        lhs = gamma * np.linalg.norm(a + b)
        assert lhs == pytest.approx(np.linalg.norm(x - y), abs=1e-11)


def test_check_termination():
    cfg = _cfg(rho_tol=0.5, eps_tol=0.1, gamma=1.0)
    x = np.array([0.3, 0.0])
    y = np.zeros(2)
    a = np.zeros(2)
    b = np.array([0.3, 0.0])
    assert check_termination(Quadruple(x, y, a, b, 0.0, 0.05), cfg)
    # eps_a + eps_b too big
    assert not check_termination(Quadruple(x, y, a, b, 0.0, 0.2), cfg)
    assert not check_termination(Quadruple(x, y, a, b, 0.06, 0.05), cfg)
    big = np.array([0.8, 0.0])
    assert not check_termination(Quadruple(big, y, a, big, 0.0, 0.0), cfg)
    # a corrupted quadruple raises rather than reading "not yet": identity
    # broken, a NaN entry, a NaN or negative enlargement
    for q in (Quadruple(x, y, a, np.array([9.0, 0.0]), 0.0, 0.0),
              Quadruple(np.array([np.nan, 0.0]), y, a, b, 0.0, 0.0),
              Quadruple(x, y, a, b, 0.0, float("nan")),
              Quadruple(x, y, a, b, float("nan"), 0.0),
              Quadruple(x, y, a, b, -0.01, 0.05)):
        with pytest.raises(ContractViolation):
            check_termination(q, cfg)


def test_ergodic_averages_and_guards():
    inst = generate_instance(5, True, 2)
    cfg = _cfg(gamma=0.6)
    A = NullspaceNormalCone(inst.K)
    B = BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi)
    state = DrsState.initial(np.full(5, 2.0), cfg)
    bs = exact_bsolver(B, cfg.gamma)
    with pytest.raises(StateError):
        drs_ergodic(state)
    drs_solve(A, bs, cfg, lambda s: s.k == 12, state)
    e = drs_ergodic(state)
    assert_allclose(e.x, np.mean(state.hist_x, axis=0), atol=1e-14)
    assert_allclose(e.b, np.mean(state.hist_b, axis=0), atol=1e-14)
    assert e.eps_a >= 0.0 and e.eps_b >= 0.0
    # prefix averages agree with a direct recomputation
    e3 = ergodic_prefix(state, 3)
    assert_allclose(e3.y, np.mean(state.hist_y[:3], axis=0), atol=1e-14)


@pytest.mark.parametrize("family", [generate_instance, faces_instance],
                         ids=["paper", "faces"])
def test_outer_certificates(family):
    # one certificate per extragradient step of a drt run, bitwise the
    # hand formula on that step's quadruple, replaying the iterates
    inst = family(10, True, 3)
    z0 = initial_point(10, 3)
    prob = drt_problem(inst, z0, tol=1e-6)
    cfg, g = prob.cfg, prob.cfg.gamma
    state = DrsState.initial(z0, cfg)
    bs, stop = partial(tseng_solve, prob.tseng), delta_stop(1e-6)
    assert outer_certificates(state, cfg) == []
    hand = []
    while not stop(state):
        z = state.z
        drs_iterate(state, cfg, bs, prob.A)
        if state.trace[-1].step == EXTRAGRADIENT:
            _, y, a, b, _, eps_b = state.last
            hand.append((z, y + g * b, g * (a + b), g * eps_b, 1.0,
                         cfg.sigma))
    assert state.beta >= 1 and state.n_extragradient >= 2
    certs = outer_certificates(state, cfg)
    assert len(certs) == len(hand) == state.n_extragradient
    for cert, want in zip(certs, hand):
        for got, w in zip(cert, want):
            assert_array_equal(got, w)
    assert all(map(verify_hpe_inequality, certs))
    # the update replays each certificate: z_l = z_prev_l - v_l
    z_after = [c.z_prev for c in certs[1:]] + [state.z]
    for cert, z in zip(certs, z_after):
        assert_array_equal(z, cert.z_prev - cert.v)
    # an enlargement that doubles the right-hand side fails step 2 alone
    r = certs[1].z_tilde - certs[1].z_prev
    state.hist_eps_b[1] = float(r.dot(r)) / g
    assert ([verify_hpe_inequality(c) for c in outer_certificates(state, cfg)]
            == [j != 1 for j in range(len(certs))])


def test_outer_certificates_pair_the_history_with_the_whole_trace():
    # the trace loses its last extragradient record: the history has one
    # row more than the trace, and the check names both counts
    state, cfg, _ = _logged_run(faces_instance, 10, True, 3)
    J = state.n_extragradient
    assert len(outer_certificates(state, cfg)) == J >= 2
    del state.trace[max(k for k, t in enumerate(state.trace)
                        if t.step == EXTRAGRADIENT)]
    with pytest.raises(InvariantViolation,
                       match=rf"^{J} extragradient steps in the history but "
                             rf"{J - 1} in the trace$"):
        outer_certificates(state, cfg)


@pytest.mark.parametrize("seed", [11, 39])
def test_a_converged_run_far_from_the_origin_replays_its_trace(seed):
    # faces semidefinite n = 1: the run converges with ||z|| about 1e4,
    # where the move ||z - z_prev|| carries up to 2.6e-12 of round-off, more
    # than a tolerance of 1e-12*(1 + residual) allows; the replay check
    # scales with the iterates it subtracts and passes, and so do the
    # paper's bounds
    inst = faces_instance(1, False, seed)
    z0 = initial_point(1, seed)
    prob = drt_problem(inst, z0, tol=1e-6)
    state = DrsState.initial(z0, prob.cfg)
    _, quad = drt_solve(prob, delta_stop(1e-6), state)
    assert kkt_check(inst, quad.x, 1e-5) and abs(state.z[0]) > 1e4
    assert len(outer_certificates(state, prob.cfg)) == state.n_extragradient
    _, d0 = nearest_zero(inst, reference_solution(inst), prob.cfg.gamma, z0)
    assert [c.violations for c in envelope(state, prob.cfg, d0).values()] \
        == [0, 0, 0]


def test_null_step_bounds_values():
    r0, e0 = null_step_bounds(100.0, 0.5)
    assert r0 == pytest.approx(3.0 * 10.0)  # (1 + 1/sigma) * sqrt(tau)
    assert e0 == pytest.approx(50.0)
    r2, e2 = null_step_bounds(1.0, 0.5)
    assert r2 == pytest.approx(3.0 * 1.0)
    assert e2 == pytest.approx(0.5)


@pytest.mark.parametrize("args", [
    (np.nan, 0.5), (0.0, 0.5), (np.inf, 0.5), (1.0, 1.0), (1.0, np.nan),
    (np.array([1.0, 0.0, 1e-4]), 0.5), (np.array([1.0, np.nan]), 0.5),
], ids=["tau0-nan", "tau0-zero", "tau0-inf", "sigma-one", "sigma-nan",
        "taus-one-zero", "taus-one-nan"])
def test_null_step_bounds_rejects_bad_arguments(args):
    # the first step's tau is the state's tau0; a NaN one once returned
    # (nan, nan); an array of taus with one such entry raises as it does
    with pytest.raises(ValueError, match="^tau must be positive"):
        null_step_bounds(*args)


def test_null_step_bounds_on_the_taus_of_a_run_are_the_scalar_calls():
    # one call on the tau every B-solve of a real run was given returns,
    # element by element, the bits of one call per tau; a scalar tau
    # returns numpy floats
    state, cfg, _ = _logged_run(faces_instance, 10, True, 3)
    taus = np.array([state.tau0] + [t.tau for t in state.trace[:-1]])
    assert len(set(taus.tolist())) > 2
    r, e = null_step_bounds(taus, cfg.sigma)
    want = [null_step_bounds(tau, cfg.sigma) for tau in taus.tolist()]
    assert all(type(a) is type(b) is np.float64 for a, b in want)
    assert (r.tolist(), e.tolist()) == tuple(map(list, zip(*want)))


def _logged_run(family, n, definite, seed):
    # a seeded drt run with the distance d0 from its start to the zero set
    inst = family(n, definite, seed)
    z0 = initial_point(n, seed)
    prob = drt_problem(inst, z0, tol=1e-6)
    state = DrsState.initial(z0, prob.cfg)
    drt_solve(prob, delta_stop(1e-6), state)
    _, d0 = nearest_zero(inst, reference_solution(inst), prob.cfg.gamma, z0)
    return state, prob.cfg, d0


def _hand_envelope(state, cfg, d0):
    # the worst ratio per half of each bound, as ACCEPT 06-08 once looped
    # over a run by hand; each prefix average is the transportation
    # formula's (oracles.transport_ergodic at uniform weights, centered
    # weighted sums), not the library's expanded form from sums
    g, J = cfg.gamma, state.n_extragradient
    rows = np.array([(np.linalg.norm(c.v), c.eps)
                     for c in outer_certificates(state, cfg)])
    pointwise, ergodic = np.zeros(2), np.zeros(2)
    for j in range(1, J + 1):
        ratios = rows[:j] / pointwise_bound(d0, cfg.sigma, j)
        pointwise = np.maximum(pointwise, ratios.min(axis=0))
        w = np.full(j, 1.0 / j)
        a = transport_ergodic(map(EnlargementTriple, state.hist_y[:j],
                                  state.hist_a[:j], np.zeros(j)), w)
        b = transport_ergodic(map(EnlargementTriple, state.hist_x[:j],
                                  state.hist_b[:j], state.hist_eps_b[:j]), w)
        rho, eps = ergodic_bound(d0, cfg.sigma, j)
        ergodic = np.maximum(ergodic, [g * np.linalg.norm(a.v + b.v) / rho,
                                       g * (a.eps + b.eps) / eps])
    null = np.zeros(2)
    given = [state.tau0] + [t.tau for t in state.trace[:-1]]
    for t, tau in zip(state.trace, given):
        if t.step == NULL:
            r, e = null_step_bounds(tau, cfg.sigma)
            null = np.maximum(null, [t.residual / r, g * t.eps_b / e])
    return {"pointwise": pointwise, "ergodic": ergodic, "null-step": null}


@pytest.mark.parametrize("run", [
    (generate_instance, 10, True, 3), (faces_instance, 10, True, 3),
    (faces_instance, 100, False, 7),
], ids=["generate_instance", "faces_instance", "faces-n100-semidefinite-7"])
def test_envelope_reads_what_the_hand_loops_read(run):
    # the last run is faces at benchmark size, with J = 291 prefixes
    state, cfg, d0 = _logged_run(*run)
    env = envelope(state, cfg, d0)
    assert list(env) == ["pointwise", "ergodic", "null-step"]
    J, nulls = state.n_extragradient, state.beta
    assert [c.checked for c in env.values()] == [J, J, nulls]
    assert [c.violations for c in env.values()] == [0, 0, 0]
    assert [c.first for c in env.values()] == [0, 0, 0]
    for bound, want in _hand_envelope(state, cfg, d0).items():
        # the pointwise and null-step rows are the hand loop's bit for
        # bit; the ergodic ones agree to round-off
        if bound == "ergodic":
            assert_allclose(env[bound].worst, want, rtol=1e-12, atol=0)
        else:
            assert env[bound].worst == tuple(want)
        assert 0 < min(env[bound].worst) and max(env[bound].worst) <= 1
        assert all(late <= worst for late, worst in
                   zip(env[bound].late, env[bound].worst))


@pytest.mark.parametrize("run", [
    (generate_instance, 10, True, 3), (faces_instance, 100, False, 7),
], ids=["paper", "faces-n100-semidefinite-7"])
def test_every_prefix_average_is_drs_ergodic_of_that_prefix(run):
    # envelope's prefix averages (the kernel on the prefix sums of one
    # stack) are drs_ergodic's on each prefix bit for bit, the last one
    # drs_ergodic's on the whole run
    state, _, _ = _logged_run(*run)
    J = state.n_extragradient
    (y, a, eps_a), (x, b, eps_b) = _ergodic_averages(state, True)
    assert len(x) == J >= 8
    for j, want in [(J, drs_ergodic(state))] + [
            (j, ergodic_prefix(state, j)) for j in range(1, J)]:
        got = (x[j - 1], y[j - 1], a[j - 1], b[j - 1], eps_a[j - 1],
               eps_b[j - 1])
        for g, w in zip(got, want):
            assert_array_equal(g, w)


def test_envelope_raises_on_a_bad_history_naming_its_prefix():
    # a NaN enlargement at step 3, and an anti-monotone B history (b
    # falls where x rises at step 3), make the averaged enlargement of
    # prefix 3 NaN or clearly negative; drs_ergodic reads the same formula
    state, cfg, d0 = _logged_run(generate_instance, 10, True, 3)
    state.hist_eps_b[2] = float("nan")
    with pytest.raises(InvariantViolation,
                       match=r"^prefix 3: negative or NaN ergodic "
                             r"enlargement: nan$"):
        envelope(state, cfg, d0)
    with pytest.raises(InvariantViolation, match="NaN"):
        drs_ergodic(state)
    state = DrsState(np.zeros(1), 1.0)
    state.hist_z_prev = state.hist_y = state.hist_a = [np.zeros(1)] * 3
    state.hist_x = [np.array([0.0]), np.array([0.0]), np.array([1.0])]
    state.hist_b = [np.array([1.0]), np.array([1.0]), np.array([-1.0])]
    state.hist_eps_b = [0.0, 0.0, 0.0]
    with pytest.raises(InvariantViolation,
                       match=r"^prefix 3: negative or NaN ergodic "
                             r"enlargement: -0\.44"):
        envelope(state, _cfg(), 1.0)
    with pytest.raises(InvariantViolation, match="^prefix 3: "):
        drs_ergodic(state)
    # the first two steps alone are a monotone history
    assert ergodic_prefix(state, 2).eps_b == 0.0


def test_envelope_reports_a_planted_violation():
    # d0/100 shrinks the pointwise and ergodic bounds 100 and 10^4 times,
    # so the run breaks them from its first extragradient step on; the
    # null-step bounds take tau, not d0, and do not move
    state, cfg, d0 = _logged_run(generate_instance, 10, True, 3)
    fair, planted = envelope(state, cfg, d0), envelope(state, cfg, d0 / 100)
    for bound in ("pointwise", "ergodic"):
        check = planted[bound]
        assert check.violations > 0 and check.first == 1
        assert max(check.worst) > 1
    assert planted["null-step"] == fair["null-step"]


def test_envelope_at_d0_zero_holds_only_for_zero_rows():
    # from a start on the zero set (n = 1, z0 = -10: the paper optimum 0
    # with lam*K >= -1), the one extragradient step has v = 0 exactly
    # and meets bounds of 0; a row of 0.5 does not, and reads inf (the
    # iterate and the trace planted with it, so the history replays)
    state, cfg, d0 = _logged_run(generate_instance, 1, True, 2)
    assert d0 == 0.0
    env = envelope(state, cfg, 0.0)
    assert env["pointwise"].violations == env["ergodic"].violations == 0
    state.hist_b[0] = state.hist_b[0] + 0.5 / cfg.gamma
    v = cfg.gamma * (state.hist_a[0] + state.hist_b[0])
    state.z = state.hist_z_prev[0] - v
    k = next(i for i, t in enumerate(state.trace) if t.step == EXTRAGRADIENT)
    state.trace[k] = state.trace[k]._replace(residual=np.linalg.norm(v))
    check = envelope(state, cfg, 0.0)["pointwise"]
    assert check.violations == 1 and check.worst[0] == np.inf


@pytest.mark.parametrize("d0", [-1.0, float("nan"), float("inf")])
def test_envelope_rejects_a_bad_d0(d0):
    with pytest.raises(ValueError, match="^d0 must be >= 0 and finite"):
        envelope(DrsState(np.zeros(2), 1.0), _cfg(), d0)


def test_a_collapsed_ladder_is_a_typed_error():
    # a B-solver whose only error is an enlargement inside the contract's
    # absolute slack: with A's resolvent the origin, the relative-error
    # test reads 2e-11 <= 0 and fails, so every step is a null step; with
    # theta = 1e-200 the ladder theta**beta * tau0 reaches 0 at beta = 2.
    # The step after raises IterationBudgetExceeded before the B-solver
    # sees tau = 0, and leaves the state as it was
    cfg, A = _cfg(theta=1e-200), NullspaceNormalCone(np.array([1.0]))
    state = DrsState.initial(np.array([2.0]), cfg)
    given = []

    def misses(z_prev, tau):
        given.append(tau)
        return 0.0 * z_prev, z_prev, 1e-11, 0

    for _ in range(2):
        drs_iterate(state, cfg, misses, A)
    assert [t.step for t in state.trace] == [NULL, NULL]
    assert state.tau == 0.0
    trace = list(state.trace)
    with pytest.raises(IterationBudgetExceeded,
                       match=r"^outer step 3: the tolerance ladder "
                             r"collapsed: theta\*\*beta \* tau0 is 0 at "
                             r"beta=2$"):
        drs_iterate(state, cfg, misses, A)
    assert given == [cfg.tau0, cfg.theta * cfg.tau0]
    assert state.trace == trace and state.beta == 2


@pytest.mark.parametrize("tau0", [float("nan"), 0.0, -1.0, float("inf")])
def test_state_rejects_a_bad_tau0(tau0):
    # as DrsConfig does: a bad tau0 used to fail at the first B-solve with
    # an untyped error, or (inf) to run every step at tau = inf
    with pytest.raises(ValueError, match="^tau0 must be positive and finite"):
        DrsState(np.zeros(3), tau0)


def test_state_accessors_before_first_step():
    state = DrsState.initial(np.zeros(3), _cfg())
    assert state.last is None
    assert state.trace == []
    with pytest.raises(StateError):
        state.residual
