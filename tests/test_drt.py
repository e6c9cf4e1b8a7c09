"""Four-operator composition: B-solver mapping, stop rules, full solves."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from drsplit.drs import (
    EXTRAGRADIENT,
    DrsConfig,
    DrsState,
    Quadruple,
    check_termination,
    drs_ergodic,
    drs_iterate,
    drs_solve,
    outer_certificates,
)
from drsplit.drt import (
    RunRecord,
    delta_stop,
    drt_solve,
    residual_stop,
    tolerance_stop,
)
from drsplit.errors import (ContractViolation, InvariantViolation,
                            IterationBudgetExceeded, StateError)
from drsplit.bench import CSV_COLUMNS, initial_point
from drsplit.hpe import verify_hpe_inequality, verify_hpe_rows
from drsplit.operators import BoxNormalCone, CocoerciveMap, LipschitzMap
from drsplit.qp import (drt_problem, faces_instance, generate_instance,
                        reference_solution)
from drsplit import drs as drs_module, tseng
from drsplit.tseng import (CERT_BLOCK_ROWS, CertBlock, TsengProblem,
                           gamma_max, tseng_solve, tseng_step)
from oracles import (BoxAffineSum, EnlargementTriple, box_contains,
                     exact_bsolver, nullspace_contains, textbook_tseng)


def _problem(n=6, seed=0, tol=1e-6, family=generate_instance, definite=True):
    # the benchmark's set-up: the recipe at sigma 0.99, theta 0.01, from
    # the benchmark's start
    inst = family(n, definite, seed)
    z0 = initial_point(n, seed)
    return inst, drt_problem(inst, z0, tol=tol), z0


def _skew_problem(max_iter=10000):
    # the n=6 problem plus a nonzero monotone F1(z) = S z (S skew, so
    # Lipschitz but not cocoercive) whose domain projector is the box, at
    # the gamma_max of that F1
    inst, qp, z0 = _problem()
    G = np.random.default_rng(0).standard_normal((6, 6))
    S = G - G.T
    F1 = LipschitzMap(eval=lambda z: S @ z, L=float(np.linalg.norm(S, 2)),
                      project_domain=lambda z: np.clip(z, inst.lo, inst.hi))
    cfg = replace(qp.cfg, gamma=gamma_max(inst.eta, F1.L, 0.99),
                  max_iter=max_iter)
    return inst, replace(qp, F1=F1, cfg=cfg), z0


def test_problem_rejects_oversized_gamma():
    inst, p, _ = _problem()
    bad = replace(p.cfg, gamma=2.0 * inst.eta)
    with pytest.raises(ValueError):
        replace(p, cfg=bad)


def test_problem_rejects_an_a_of_another_dimension_than_c():
    _, qp, _ = _problem()
    A = BoxNormalCone(np.zeros(7), np.ones(7))
    with pytest.raises(ValueError,
                       match=r"^A has dimension 7, C has dimension 6$"):
        replace(qp, A=A)


def test_run_record_matches_csv_schema():
    fields = list(RunRecord.__dataclass_fields__)
    assert tuple(fields[:len(CSV_COLUMNS)]) == CSV_COLUMNS
    assert fields[len(CSV_COLUMNS)] == "error"


def test_bsolver_satisfies_outer_contract_identity():
    # the inner exit quantity IS the outer contract quantity: gamma*b + x
    # - z collapses to the last inner displacement
    inst, p, z0 = _problem(n=8, seed=3)
    cfg = p.cfg
    bs = partial(tseng_solve, p.tseng)
    gamma = cfg.gamma
    for tau in (cfg.tau0, 1e-2, 1e-6):
        x, b, eps_b, inner = bs(z0, tau)
        r = gamma * b + x - z0
        lhs = float(r @ r) + 2.0 * gamma * eps_b
        assert lhs <= tau * (1 + 1e-10)
        assert eps_b >= 0.0 and inner >= 1


def test_bsolver_matches_hand_inner_loop():
    # the textbook inner loop, no tseng module
    inst, qp, z0 = _problem(n=7, seed=5)
    cfg = qp.cfg
    hand_bsolver = partial(textbook_tseng, inst, cfg.gamma, qp.F2.eta)

    # the generic step: the affine one (p.tseng.G) agrees to round-off
    p = replace(qp, F2=CocoerciveMap(eval=qp.F2.eval, eta=qp.F2.eta))
    lib = DrsState.initial(z0, cfg)
    ref = DrsState.initial(z0, cfg)
    lib_bs = partial(tseng_solve, p.tseng)
    for _ in range(40):
        drs_iterate(lib, cfg, lib_bs, p.A)
        drs_iterate(ref, cfg, hand_bsolver, p.A)
        got, want = lib.trace[-1], ref.trace[-1]
        assert (got.step, got.inner) == (want.step, want.inner)
        assert_array_equal(lib.z, ref.z)
        assert lib.tau == ref.tau


def test_stop_rules():
    with pytest.raises(ValueError):
        delta_stop(0.0)
    with pytest.raises(ValueError):
        residual_stop(-1.0)
    for rule in (delta_stop, residual_stop):
        with pytest.raises(ValueError):
            rule(float("nan"))
    inst, p, z0 = _problem(n=5, seed=8)
    # before any iteration nothing fires
    state = DrsState.initial(z0, p.cfg)
    assert not delta_stop(1e9)(state)
    assert not residual_stop(1e9)(state)
    assert not tolerance_stop(p.cfg)(state)


def test_tolerance_stop_falls_back_to_the_ergodic_average():
    # two extragradient steps; the last has ||x - y|| = 1 > rho_tol, and
    # their average is the zero quadruple with eps_a = 0 and eps_b the
    # steps' common eps_b (the corrections <x_l - xbar, b_l> vanish)
    cfg = DrsConfig(gamma=1.0, sigma=0.5, theta=0.5, tau0=1.0, rho_tol=0.5,
                    eps_tol=0.1)
    xs = [np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    bs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    as_ = [np.zeros(2), np.zeros(2)]
    ys = [x - b for x, b in zip(xs, bs)]    # gamma*(a + b) = x - y

    def state(eps_b, steps=2):
        s = DrsState(np.zeros(2), cfg.tau0)
        s.hist_x, s.hist_y = xs[:steps], ys[:steps]
        s.hist_a, s.hist_b = as_[:steps], bs[:steps]
        s.hist_eps_b = [eps_b] * steps
        s.last = Quadruple(xs[1], ys[1], as_[1], bs[1], 0.0, eps_b)
        return s

    stop = tolerance_stop(cfg)
    assert not check_termination(state(0.0).last, cfg)
    assert check_termination(drs_ergodic(state(0.0)), cfg)
    assert stop(state(0.0))
    # eps_b above eps_tol: the average fails too, and the rule does not fire
    assert not stop(state(0.3))
    # without extragradient history only the last quadruple is tested
    assert not stop(state(0.0, steps=0))


def test_a_tiny_q_ends_in_the_budget_error_not_a_wrong_answer():
    # faces semidefinite n = 1, seed 7: ||Q|| = 1.5e-6 makes gamma =
    # 2*sigma^2/||Q|| = 1.3e6, and the zero set z* = x* - gamma*lam*K lies
    # 8.6e6 from the start; each extragradient step moves z by the box's
    # half width, 5, so the run ends in the typed budget error at
    # max_iter with z finite near -5e4, never in a NaN or a converged
    # record
    inst = faces_instance(1, False, 7)
    z0 = initial_point(1, 7)
    prob = drt_problem(inst, z0, tol=1e-6)
    assert prob.cfg.gamma > 1e6
    state = DrsState.initial(z0, prob.cfg)
    with pytest.raises(IterationBudgetExceeded,
                       match=r"^max_iter=10000 reached$"):
        drt_solve(prob, delta_stop(1e-6), state)
    assert state.k == prob.cfg.max_iter == 10000
    assert np.isfinite(state.z).all() and -5.1e4 < state.z[0] < -4.9e4
    assert [t.residual for t in state.trace[-10:]] == pytest.approx(
        [5.0] * 10, rel=1e-12)


def test_delta_stop_ignores_null_steps():
    inst, p, z0 = _problem(n=6, seed=11)
    state = DrsState.initial(z0, p.cfg)
    drt_solve(p, delta_stop(1e-6), state)
    assert state.beta >= 1 and state.trace[-1].step == EXTRAGRADIENT
    assert np.linalg.norm(state.z - state.hist_z_prev[-1]) <= 1e-6


def test_full_solve_record_consistency():
    inst, qp, z0 = _problem(n=10, seed=1)
    state = DrsState.initial(z0, qp.cfg)
    calls = [0] * 100   # F2 evaluations made during each outer step

    def counted(z):
        calls[len(state.trace)] += 1
        return qp.F2.eval(z)

    p = replace(qp, F2=CocoerciveMap(eval=counted, eta=qp.F2.eta))
    record, quad = drt_solve(p, delta_stop(1e-6), state)
    assert record.algo == "drt"
    assert record.n == 10
    assert record.iters == record.extragrad + record.null
    assert record.iters >= 1
    # the trace's inner counts and the record's are the F2 evaluations made
    assert [t.inner for t in state.trace] == calls[:record.iters]
    assert record.f2_evals == sum(calls) == record.inner
    assert record.inner >= record.iters  # every outer step runs >= 1 inner
    assert record.residual == pytest.approx(
        np.linalg.norm(quad.x - quad.y), rel=1e-12)
    assert record.time_s > 0.0
    assert record.error is None


def test_solve_accuracy_against_oracle():
    for seed in (0, 2, 4):
        inst, p, z0 = _problem(n=4, seed=seed, tol=1e-8)
        record, quad = drt_solve(p, tolerance_stop(p.cfg),
                                 DrsState.initial(z0, p.cfg))
        z_star = reference_solution(inst)
        assert np.max(np.abs(quad.x - z_star)) < 1e-4


def test_solve_with_caller_state_exposes_history():
    inst, p, z0 = _problem(n=6, seed=13)
    cfg = p.cfg
    state = DrsState.initial(z0, cfg)
    record, _ = drt_solve(p, delta_stop(1e-6), state)
    assert state.k == record.iters
    assert len(state.hist_x) == record.extragrad
    assert len(state.trace) == record.iters
    # trace tolerances follow theta**beta * tau0 exactly
    beta = 0
    for rec in state.trace:
        if rec.step == "null":
            beta += 1
        assert rec.tau == pytest.approx(cfg.theta ** beta * cfg.tau0,
                                        rel=1e-12)


def _exact_requests(inst, gamma):
    # the exact B-resolvent of C + F2, and the requests it has been given
    exact, requests = exact_bsolver(
        BoxAffineSum(inst.Q, inst.e, inst.lo, inst.hi), gamma), []

    def recorded(z_prev, tau):
        requests.append((z_prev, tau))
        return exact(z_prev, tau)

    return recorded, requests


def test_solve_refuses_a_state_that_has_stepped():
    # one run is one window: a state that has stepped, by a whole solve or
    # by one outer step, raises before any step and is left as it was;
    # drs_solve, the loop drt_solve runs, does so with an exact B-solver
    inst, p, z0 = _problem(n=6, seed=13)
    solved, exact_run = (DrsState.initial(z0, p.cfg) for _ in range(2))
    drt_solve(p, delta_stop(1e-6), solved)
    exact, requests = _exact_requests(inst, p.cfg.gamma)
    drs_solve(p.A, exact, p.cfg, delta_stop(1e-6), exact_run)
    assert len(requests) == exact_run.k > 1
    stepped = drs_iterate(DrsState.initial(z0, p.cfg), p.cfg,
                          partial(tseng_solve, p.tseng), p.A)
    for state in (solved, exact_run, stepped):
        k, trace, z = state.k, list(state.trace), state.z.copy()
        certs, requests[:] = [], []
        with pytest.raises(StateError, match=f"fresh state.*k={k}$"):
            drt_solve(p, delta_stop(1e-6), state, inner_cert_log=certs)
        with pytest.raises(StateError, match=f"fresh state.*k={k}$"):
            drs_solve(p.A, exact, p.cfg, delta_stop(1e-6), state)
        assert state.k == k and state.trace == trace
        assert certs == [] == requests
        assert_array_equal(state.z, z)


def test_solve_rejects_a_start_of_another_dimension_before_a_step():
    # a 5-vector start on an n=6 problem used to fail inside the first
    # B-solve with a message about z_hat; drs_solve raises before its first
    # B-solve too
    inst, p, _ = _problem()
    exact, requests = _exact_requests(inst, p.cfg.gamma)
    state = DrsState.initial(np.zeros(5), p.cfg)
    k, trace, z = state.k, list(state.trace), state.z.copy()
    with pytest.raises(ValueError, match="^z0 must have length 6$"):
        drt_solve(p, delta_stop(1e-6), state)
    with pytest.raises(ValueError, match="^z0 must have length 6$"):
        drs_solve(p.A, exact, p.cfg, delta_stop(1e-6), state)
    assert state.k == k and state.trace == trace and requests == []
    assert_array_equal(state.z, z)


@pytest.mark.parametrize("max_inner", [2.5, float("nan"), 0, -3])
def test_solve_rejects_an_inner_budget_that_is_not_an_integer_from_1(max_inner):
    # a fraction or NaN escaped as a bare TypeError, 0 or -3 as a budget error
    inst, p, z0 = _problem()
    with pytest.raises(ValueError, match="^max_inner must be an integer >= 1$"):
        drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                  max_inner=max_inner)


@pytest.mark.parametrize("family, definite",
                         [(generate_instance, True), (faces_instance, False)],
                         ids=["paper", "faces"])
def test_a_bsolver_built_for_another_gamma_breaks_the_outer_contract(
        family, definite):
    # the B-solve request carries no stepsize: a Tseng subproblem built at
    # half of cfg.gamma answers every request, and drs_iterate's contract
    # check at cfg.gamma is what catches it (tolerance 2081.2 exceeded on
    # paper, 154.7 on faces)
    inst, p, z0 = _problem(n=8, seed=3, family=family, definite=definite)
    cfg = p.cfg
    half = TsengProblem(p.C, p.F1, p.F2, gamma=cfg.gamma / 2,
                        sigma=cfg.sigma)
    state = DrsState.initial(z0, cfg)
    with pytest.raises(ContractViolation) as info:
        drs_solve(p.A, partial(tseng_solve, half), cfg, lambda s: False,
                  state)
    assert str(info.value).startswith(
        "outer B-solve call 2: bsolver output violates its tolerance")
    assert state.k == 1


def test_one_gamma_max_check_per_solve(monkeypatch):
    # gamma_max runs when the problem is built, not once per outer call
    calls = [0]
    base = tseng.gamma_max

    def counted(*args):
        calls[0] += 1
        return base(*args)

    monkeypatch.setattr(tseng, "gamma_max", counted)
    inst, p, z0 = _problem(n=8, seed=19)
    record, _ = drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg))
    assert record.iters > 1
    assert calls[0] == 1


def test_inner_certificates_verify():
    inst, p, z0 = _problem(n=8, seed=19)
    certs = []
    record, _ = drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                          inner_cert_log=certs)
    assert len(certs) == record.inner
    assert all(verify_hpe_inequality(c) for c in certs)


def test_inner_budget_carries_outer_context():
    inst, p, z0 = _problem(n=10, seed=0)
    with pytest.raises(IterationBudgetExceeded, match="B-solve call"):
        drt_solve(p, delta_stop(1e-10), DrsState.initial(z0, p.cfg),
                  max_inner=1)


def _poisoned(F2, bad_call):
    # F2 whose bad_call-th evaluation returns NaN
    calls = 0

    def eval(z):
        nonlocal calls
        calls += 1
        out = F2.eval(z)
        return np.full_like(out, np.nan) if calls == bad_call else out

    return CocoerciveMap(eval=eval, eta=F2.eta)


def test_non_finite_f2_output_names_outer_call_and_inner_step():
    inst, qp, z0 = _problem(n=20, seed=0)
    # where F2 evaluation 7 falls in the clean run: outer call, inner step
    state = DrsState.initial(z0, qp.cfg)
    drt_solve(qp, delta_stop(1e-6), state)
    call, step = _call_and_step([t.inner for t in state.trace], 7)
    assert call > 1
    p = replace(qp, F2=_poisoned(qp.F2, 7))
    with pytest.raises(ContractViolation,
                       match=f"^outer B-solve call {call}: inner step {step}: "
                             "point contains non-finite entries$"):
        drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg))


def test_skew_f1_inner_solve_reaches_resolvent():
    inst, drt_p, z_hat = _skew_problem()
    p, gamma = drt_p.tseng, drt_p.cfg.gamma
    z, b, _, _ = tseng_solve(p, z_hat, 1e-24)
    # natural residual of 0 in N_X(z) + S z + Q z + e + (z - z_hat)/gamma
    g = p.F1.eval(z) + inst.Q @ z + inst.e + (z - z_hat) / gamma
    assert np.linalg.norm(z - np.clip(z - g, inst.lo, inst.hi)) <= 1e-9
    # gamma*b + x - z_hat is the last step's z_prev - z_next, which the
    # exit test bounds by sqrt(tau_hat), here with the correction in z_next
    assert np.linalg.norm(gamma * b + z - z_hat) <= 1e-12
    # z_hat lies outside the box, so the domain projection moves it, and
    # the correction F1(z_tilde) - F1(z_prime) moves z_next off z_tilde
    z_prime, z_tilde, z_next = tseng_step(p, z_hat, z_hat)
    assert np.linalg.norm(z_prime - z_hat) > 1.0
    assert np.linalg.norm(z_next - z_tilde) > 1e-3


def test_skew_f1_two_f1_evals_per_step():
    # a nonzero Lipschitz F1 runs the correction: F1 at z_prime and at
    # z_tilde, F2 once
    inst, drt_p, z0 = _skew_problem()
    F1, F2 = drt_p.F1, drt_p.F2
    calls = {"F1": 0, "F2": 0}

    def counted(name, f):
        def g(z):
            calls[name] += 1
            return f(z)
        return g

    p = TsengProblem(C=drt_p.C, F1=LipschitzMap(counted("F1", F1.eval), F1.L,
                                                F1.project_domain),
                     F2=CocoerciveMap(counted("F2", F2.eval), F2.eta),
                     gamma=drt_p.cfg.gamma, sigma=0.99)
    *_, inner = tseng_solve(p, z0, 1e-12)
    assert inner > 1
    assert calls == {"F1": 2 * inner, "F2": inner}


def test_skew_f1_certificates_verify():
    inst, p, z0 = _skew_problem()
    cfg, gamma = p.cfg, p.cfg.gamma
    state = DrsState.initial(z0, cfg)
    certs = []
    record, _ = drt_solve(p, delta_stop(1e-6), state, inner_cert_log=certs)
    assert record.null >= 1 and len(certs) == record.inner
    assert all(c.lam == gamma and verify_hpe_inequality(c) for c in certs)
    outer = outer_certificates(state, cfg)
    assert len(outer) >= 1 and all(map(verify_hpe_inequality, outer))


@pytest.mark.parametrize("family", ["paper", "skew"])
def test_solver_output_lies_in_the_cone_graphs_exactly(family, monkeypatch):
    # every box resolvent output x, with u = (z - x)/gamma, is in N_X's
    # graph, and every extragradient (y, a) in N_M's graph, at eps = 0
    inst, p, z0 = _problem(n=100) if family == "paper" else _skew_problem()
    outputs = []
    base = BoxNormalCone.resolvent

    def logged(self, gamma, z, **kw):
        # the trusted call skips the point check; the input must still be
        # left as it was, or the (z - x)/g check below proves nothing
        before = np.array(z, dtype=float)
        x = base(self, gamma, z, **kw)
        assert_array_equal(z, before)
        outputs.append((self, z, gamma, x))
        return x

    monkeypatch.setattr(BoxNormalCone, "resolvent", logged)
    state = DrsState.initial(z0, p.cfg)
    record, _ = drt_solve(p, delta_stop(1e-6), state)
    assert len(outputs) == record.inner
    for op, z, g, x in outputs:
        assert op is p.C
        assert box_contains(op, EnlargementTriple(x, (z - x) / g, 0.0))
    assert state.n_extragradient >= 1
    for y, a in zip(state.hist_y, state.hist_a):
        assert nullspace_contains(p.A, EnlargementTriple(y, a, 0.0))


def _mutated(monkeypatch, mutations):
    # tseng_solve calls the module-level tseng_step once per inner step;
    # mutations maps a step number, counted over every call, to a
    # function of that step's output
    real, calls = tseng.tseng_step, []

    def step(*args):
        calls.append(None)
        out = real(*args)
        mutate = mutations.get(len(calls))
        return out if mutate is None else mutate(*out)

    monkeypatch.setattr(tseng, "tseng_step", step)


def _mutated_at_step_3(monkeypatch, mutate):
    _mutated(monkeypatch, {3: mutate})


def test_wrong_correction_at_step_3_fails_its_certificate(monkeypatch):
    # the skew-F1 correction scaled by 10 at inner step 3: the block check
    # names that step and logs exactly the two certified steps before it
    _, drt_p, z_hat = _skew_problem()
    p = drt_p.tseng
    clean = []
    with CertBlock(p, clean) as block:
        *_, inner = tseng_solve(p, z_hat, 1e-24, cert_log=block)
    assert inner > 3
    _mutated_at_step_3(monkeypatch, lambda zp, zt, zn:
                       (zp, zt, zt + 10.0 * (zn - zt)))
    certs = []
    with pytest.raises(InvariantViolation, match=r"^inner step 3 failed"):
        with CertBlock(p, certs) as block:
            tseng_solve(p, z_hat, 1e-24, cert_log=block)
    assert len(certs) == 2
    for got, want in zip(certs, clean):
        for x, y in zip(got, want):
            assert_array_equal(x, y)


def test_step_that_raises_keeps_the_certificates_before_it(monkeypatch):
    # a non-finite output at inner step 3 raises ContractViolation after
    # steps 1-2 are checked and logged
    _, drt_p, z_hat = _skew_problem()

    def poisoned(zp, zt, zn):
        raise ValueError("point contains non-finite entries")

    _mutated_at_step_3(monkeypatch, poisoned)
    certs = []
    with pytest.raises(ContractViolation, match=r"^inner step 3: point"):
        with CertBlock(drt_p.tseng, certs) as block:
            tseng_solve(drt_p.tseng, z_hat, 1e-24, cert_log=block)
    assert len(certs) == 2
    assert all(verify_hpe_inequality(c) for c in certs)


@pytest.mark.parametrize("family", ["paper", "faces", "skew"])
def test_block_verdicts_equal_the_scalar_check(family):
    # every inner certificate of a full solve, checked as one block and one
    # by one; scaling eps makes a share of them fail, so both verdicts
    # are compared
    if family == "paper":
        inst, p, z0 = _problem(n=100)
    elif family == "faces":
        inst, p, z0 = _problem(n=100, family=faces_instance, definite=False)
    else:
        inst, p, z0 = _skew_problem()
    cfg = p.cfg
    certs = []
    record, _ = drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, cfg),
                          inner_cert_log=certs)
    assert len(certs) == record.inner > 10
    Zp, Zt, V = (np.stack([c[i] for c in certs]) for i in range(3))
    eps = np.array([c.eps for c in certs])
    failed = 0
    for scale in (1.0, 1.0 + 1e-9, 1.0 + 1e-6, 2.0, 10.0, 100.0):
        scaled = [c._replace(eps=c.eps * scale) for c in certs]
        want = [verify_hpe_inequality(c) for c in scaled]
        got = verify_hpe_rows(Zp, Zt, V, eps * scale, cfg.gamma, cfg.sigma)
        assert got.tolist() == want
        failed += want.count(False)
        if scale == 1.0:
            assert all(want)
    assert 0 < failed


def _clean_skew_log():
    # inner counts per B-solve call and every inner certificate of the
    # clean skew-F1 solve
    _, p, z0 = _skew_problem()
    state, certs = DrsState.initial(z0, p.cfg), []
    record, _ = drt_solve(p, delta_stop(1e-6), state, inner_cert_log=certs)
    counts = [t.inner for t in state.trace]
    assert record.inner == sum(counts) == len(certs) > CERT_BLOCK_ROWS
    return counts, certs


def _wrong_correction(zp, zt, zn):
    return zp, zt, zt + 10.0 * (zn - zt)


def _nonfinite(zp, zt, zn):
    raise ValueError("point contains non-finite entries")


def _call_and_step(counts, step):
    # (outer B-solve call, inner step within it) of a global step number
    starts = np.cumsum([0] + counts)
    call = int(np.searchsorted(starts, step, side="left"))
    return call, step - int(starts[call - 1])


def test_failed_certificate_in_a_later_bsolve_names_call_and_step(
        monkeypatch):
    # the certificate rows of several B-solves are checked together: the
    # failing row is still named by its own call and step, and the log
    # holds exactly the certificates before it
    counts, clean = _clean_skew_log()
    bad = 9
    call, step = _call_and_step(counts, bad)
    assert call > 2 and step > 1 and bad < CERT_BLOCK_ROWS
    # the block names the outer call that drs_iterate numbers (state.k + 1)
    # at the B-solve that takes the bad step
    numbered, at_bad, real_iterate = [], [], drs_module.drs_iterate

    def iterate(state, *args):
        numbered.append(state.k + 1)
        return real_iterate(state, *args)

    def wrong_and_noted(*out):
        at_bad.append(numbered[-1])
        return _wrong_correction(*out)

    monkeypatch.setattr(drs_module, "drs_iterate", iterate)
    _mutated(monkeypatch, {bad: wrong_and_noted})
    _, p, z0 = _skew_problem()
    certs = []
    with pytest.raises(InvariantViolation,
                       match=f"^outer B-solve call {call}: inner step {step} "
                             "failed its certificate$"):
        drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                  inner_cert_log=certs)
    assert at_bad == [call]
    assert len(certs) == bad - 1
    for got, want in zip(certs, clean):
        for x, y in zip(got, want):
            assert_array_equal(x, y)


@pytest.mark.parametrize("later", ["contract", "outer budget", "inner budget"])
def test_failed_certificate_precedes_a_later_error(monkeypatch, later):
    # a failed certificate still pending when a later step or call raises
    # is reported instead of that error, as within one tseng_solve
    counts, _ = _clean_skew_log()
    bad = 9
    call, step = _call_and_step(counts, bad)
    mutations = {bad: _wrong_correction}
    max_iter, max_inner = 10000, 1000
    if later == "contract":
        mutations[bad + 3] = _nonfinite
    elif later == "outer budget":
        max_iter = call + 1
    else:
        max_inner = max(counts[:call + 1]) - 1
    _mutated(monkeypatch, mutations)
    _, p, z0 = _skew_problem(max_iter)
    certs = []
    with pytest.raises(InvariantViolation,
                       match=f"^outer B-solve call {call}: inner step {step} "
                             "failed") as info:
        drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                  max_inner=max_inner, inner_cert_log=certs)
    assert len(certs) == bad - 1
    # the error it displaced is its context
    assert isinstance(info.value.__context__,
                      ContractViolation if later == "contract"
                      else IterationBudgetExceeded)


def test_pending_certificates_are_checked_when_drs_iterate_raises():
    # the outer budget ends the solve after 7 B-solves, fewer rows than a
    # block: every step taken is checked and logged before the error
    counts, clean = _clean_skew_log()
    _, p, z0 = _skew_problem(max_iter=7)
    certs = []
    with pytest.raises(IterationBudgetExceeded, match="max_iter=7"):
        drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                  inner_cert_log=certs)
    assert len(certs) == sum(counts[:7]) < CERT_BLOCK_ROWS
    for got, want in zip(certs, clean):
        for x, y in zip(got, want):
            assert_array_equal(x, y)


def _block_rows(monkeypatch):
    # rows per verify_hpe_rows call
    rows, real_rows = [], tseng.verify_hpe_rows

    def spy_rows(Z_prev, *args):
        rows.append(len(Z_prev))
        return real_rows(Z_prev, *args)

    monkeypatch.setattr(tseng, "verify_hpe_rows", spy_rows)
    return rows


def test_short_solve_is_checked_in_full(monkeypatch):
    # fewer rows than a block: one check, of every step, before returning
    rows = _block_rows(monkeypatch)
    inst, p, z0 = _problem()
    certs = []
    record, _ = drt_solve(p, delta_stop(1e-6), DrsState.initial(z0, p.cfg),
                          inner_cert_log=certs)
    assert record.iters > 1
    assert rows == [record.inner] == [len(certs)]
    assert record.inner < CERT_BLOCK_ROWS


def test_blocks_span_bsolves_and_log_what_per_call_checks_log(monkeypatch):
    # a faces n=100 solve: each check takes whole B-solves and runs as
    # soon as CERT_BLOCK_ROWS rows are pending, and the log equals, element
    # by element, what checking each B-solve on its own appends
    inst, p, z0 = _problem(n=100, family=faces_instance, definite=False)
    cfg = p.cfg
    per_call = []

    def checked_per_call(z_prev, tau):
        with CertBlock(p.tseng, per_call) as block:
            tseng_solve(p.tseng, z_prev, tau, cert_log=block)
        return tseng_solve(p.tseng, z_prev, tau)

    drs_solve(p.A, checked_per_call, cfg, delta_stop(1e-6),
              DrsState.initial(z0, cfg))
    rows = _block_rows(monkeypatch)
    state, certs = DrsState.initial(z0, cfg), []
    record, _ = drt_solve(p, delta_stop(1e-6), state, inner_cert_log=certs)
    counts = [t.inner for t in state.trace]
    assert sum(rows) == sum(counts) == record.inner == len(certs)
    assert 1 < len(rows) < len(counts) // 4
    ends = np.cumsum(counts).tolist()
    done = 0
    for i, r in enumerate(rows):
        # every block but the last is full, and none was full one
        # B-solve earlier
        assert r >= CERT_BLOCK_ROWS or i == len(rows) - 1
        done += r
        assert done in ends
        assert r - counts[ends.index(done)] < CERT_BLOCK_ROWS
    assert len(per_call) == len(certs)
    for got, want in zip(certs, per_call):
        for x, y in zip(got, want):
            assert_array_equal(x, y)
