"""Acceptance gate: end-to-end checks of the certified-inexactness chain.

Each test prints one `ACCEPT NN <name>: PASS(...)` (or FAIL) line; run
with -s to see them on success.  Heavy shared runs live in module-scoped
fixtures so the whole gate stays within its time budget.
"""

import time

import numpy as np
import pytest

from drsplit.bench import BenchSpec, initial_point, run_batch, summarize
from drsplit.drs import (
    EXTRAGRADIENT,
    NULL,
    DrsConfig,
    DrsState,
    drs_ergodic,
    drs_iterate,
    null_step_bounds,
)
from drsplit.drt import DrtProblem, delta_stop, drt_bsolver, drt_solve, tolerance_stop
from drsplit.hpe import (
    HpeStepCertificate,
    RateEnvelope,
    ergodic_bound,
    pointwise_bound,
    verify_hpe_inequality,
)
from drsplit.operators import EnlargementTriple, transport_ergodic
from drsplit.qp import (
    box_solution,
    drs_reference_zero,
    generate_instance,
    qp_operators,
    reference_solution,
    tau0_default,
)
from drsplit.baselines import run_baseline
from drsplit.tseng import TsengProblem, tseng_solve

SIGMA = 0.99
THETA = 0.01


def _accept(num, name, ok, detail):
    print(f"ACCEPT {num:02d} {name}: {'PASS' if ok else 'FAIL'}({detail})")


def _drt_setup(n, seed, tol=1e-6):
    inst = generate_instance(n, True, seed)
    ops = qp_operators(inst)
    gamma = 2.0 * ops.eta * SIGMA ** 2
    z0 = initial_point(n, seed)
    cfg = DrsConfig(gamma=gamma, sigma=SIGMA, theta=THETA,
                    tau0=tau0_default(inst, z0), rho_tol=tol, eps_tol=tol)
    prob = DrtProblem(A=ops.A, C=ops.C, F1=ops.F1, F2=ops.F2, cfg=cfg)
    return inst, ops, cfg, prob, z0


@pytest.fixture(scope="module")
def cert_runs():
    """100 solves across n in {2, 10, 50} with full state and inner logs."""
    t0 = time.perf_counter()
    runs = []
    plan = [(2, range(34)), (10, range(100, 133)), (50, range(200, 233))]
    for n, seeds in plan:
        for seed in seeds:
            inst, ops, cfg, prob, z0 = _drt_setup(n, seed)
            state = DrsState.initial(z0, cfg)
            inner_certs = []
            drt_solve(prob, delta_stop(1e-6), state=state,
                      inner_cert_log=inner_certs)
            runs.append(dict(n=n, seed=seed, state=state, cfg=cfg,
                             inner_certs=inner_certs))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def instrumented():
    """20 fully logged n=10 solves plus their reference constants."""
    t0 = time.perf_counter()
    items = []
    for seed in range(20):
        inst, ops, cfg, prob, z0 = _drt_setup(10, seed)
        state = DrsState.initial(z0, cfg)
        bsolver = drt_bsolver(prob, inner_log=(inner_log := []))
        stop = delta_stop(1e-6)
        zs, taus = [], []
        while True:
            taus.append(state.tau)
            drs_iterate(state, cfg, bsolver, ops.A)
            zs.append(state.z.copy())
            if stop(state):
                break
        z_inf, d0 = drs_reference_zero(inst, cfg.gamma, z0)
        d0b = float(np.linalg.norm(z0 - box_solution(inst)))
        items.append(dict(inst=inst, cfg=cfg, state=state, z0=z0, zs=zs,
                          taus=taus, inner_log=inner_log, z_inf=z_inf,
                          d0=d0, d0b=d0b))
    return items, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table_batches():
    """The n=100 benchmark batches behind the reported iteration counts."""
    t0 = time.perf_counter()
    drt_delta = run_batch(BenchSpec(n=100, instances=100, algo="drt",
                                    stop="delta"))
    tos_delta = run_batch(BenchSpec(n=100, instances=100, algo="tos",
                                    stop="delta"))
    main_elapsed = time.perf_counter() - t0
    drt_resid = run_batch(BenchSpec(n=100, instances=100, algo="drt",
                                    stop="residual"))
    return dict(drt_delta=drt_delta, tos_delta=tos_delta,
                drt_resid=drt_resid, main_elapsed=main_elapsed)


def test_accept_01_outer_hpe_certificates(cert_runs):
    runs, elapsed = cert_runs
    total = 0
    bad = 0
    for run in runs:
        state, cfg = run["state"], run["cfg"]
        g = cfg.gamma
        for j in range(state.n_extragradient):
            cert = HpeStepCertificate(
                z_prev=state.hist_z_prev[j],
                z_tilde=state.hist_y[j] + g * state.hist_b[j],
                v=g * (state.hist_a[j] + state.hist_b[j]),
                eps=g * state.hist_eps_b[j],
                lam=1.0,
                sigma=cfg.sigma,
            )
            total += 1
            if not verify_hpe_inequality(cert):
                bad += 1
    ok = bad == 0 and total > 0 and elapsed < 30.0
    _accept(1, "outer hpe certificates", ok,
            f"steps={total} failures={bad} runs={len(runs)} "
            f"time={elapsed:.1f}s")
    assert bad == 0 and total > 0
    assert elapsed < 30.0


def test_accept_02_inner_certificates(cert_runs):
    runs, elapsed = cert_runs
    total = 0
    bad = 0
    for run in runs:
        for cert in run["inner_certs"]:
            total += 1
            if cert.lam != run["cfg"].gamma or not verify_hpe_inequality(cert):
                bad += 1
    ok = bad == 0 and total > 0 and elapsed < 30.0
    _accept(2, "inner tseng certificates", ok,
            f"steps={total} failures={bad} time={elapsed:.1f}s")
    assert bad == 0 and total > 0
    assert elapsed < 30.0


def test_accept_03_oracle_equivalence():
    t0 = time.perf_counter()
    plan = [(2, range(13)), (3, range(13)), (4, range(12)), (5, range(12))]
    worst_drt = worst_tos = worst_rfdrs = 0.0
    count = 0
    for n, seeds in plan:
        for seed in seeds:
            inst, ops, cfg, prob, z0 = _drt_setup(n, seed, tol=1e-8)
            z_star = reference_solution(inst)
            _, quad = drt_solve(prob, tolerance_stop(cfg), z0=z0)
            worst_drt = max(worst_drt,
                            float(np.max(np.abs(quad.x - z_star))))
            _, sol_t = run_baseline(inst, "tos", tol=1e-10)
            worst_tos = max(worst_tos,
                            float(np.max(np.abs(sol_t - z_star))))
            _, sol_r = run_baseline(inst, "rfdrs", tol=1e-10)
            worst_rfdrs = max(worst_rfdrs,
                              float(np.max(np.abs(sol_r - z_star))))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = (count == 50 and worst_drt < 1e-4 and worst_tos < 1e-5
          and worst_rfdrs < 1e-5 and elapsed < 60.0)
    _accept(3, "solution oracle equivalence", ok,
            f"instances={count} drt_gap={worst_drt:.2e} "
            f"tos_gap={worst_tos:.2e} rfdrs_gap={worst_rfdrs:.2e} "
            f"time={elapsed:.1f}s")
    assert count == 50
    assert worst_drt < 1e-4
    assert worst_tos < 1e-5 and worst_rfdrs < 1e-5
    assert elapsed < 60.0


def test_accept_04_iteration_count_bands(table_batches):
    drt = table_batches["drt_delta"]
    tos = table_batches["tos_delta"]
    elapsed = table_batches["main_elapsed"]
    assert all(r.error is None for r in drt + tos)
    s_drt = summarize(drt)
    s_tos = summarize(tos)
    m_iters = s_drt["iters"][2]
    m_extra = s_drt["extragrad"][2]
    m_null = s_drt["null"][2]
    m_tos = s_tos["iters"][2]
    ok = (7.6 <= m_iters <= 30.4 and 5.1 <= m_extra <= 20.5
          and 1.8 <= m_null <= 7.2 and 4.7 <= m_tos <= 18.7
          and elapsed < 120.0)
    _accept(4, "iteration count bands", ok,
            f"iters={m_iters:.2f} extragrad={m_extra:.2f} "
            f"null={m_null:.2f} tos={m_tos:.2f} time={elapsed:.1f}s")
    assert 7.6 <= m_iters <= 30.4
    assert 5.1 <= m_extra <= 20.5
    assert 1.8 <= m_null <= 7.2
    assert 4.7 <= m_tos <= 18.7
    assert elapsed < 120.0


def test_accept_05_residual_stop_band(table_batches):
    resid = table_batches["drt_resid"]
    delta = table_batches["drt_delta"]
    assert all(r.error is None for r in resid)
    m_resid = summarize(resid)["iters"][2]
    m_delta = summarize(delta)["iters"][2]
    ok = 6.8 <= m_resid <= 27.3 and m_resid <= m_delta + 2.0
    _accept(5, "residual stop band", ok,
            f"iters={m_resid:.2f} delta_iters={m_delta:.2f}")
    assert 6.8 <= m_resid <= 27.3
    assert m_resid <= m_delta + 2.0


def test_accept_06_pointwise_rate_envelope(instrumented):
    items, elapsed = instrumented
    checked = 0
    violations = 0
    for it in items:
        state, cfg, d0 = it["state"], it["cfg"], it["d0"]
        env = RateEnvelope(d0=d0, lambda_min=1.0, sigma=cfg.sigma)
        resids = [cfg.gamma * float(np.linalg.norm(a + b))
                  for a, b in zip(state.hist_a, state.hist_b)]
        best = np.minimum.accumulate(resids)
        for j in range(1, len(resids) + 1):
            rho, _ = pointwise_bound(env, j)
            checked += 1
            if best[j - 1] > rho * (1 + 1e-10):
                violations += 1
    ok = violations == 0 and checked > 0 and elapsed < 60.0
    _accept(6, "pointwise rate envelope", ok,
            f"checks={checked} violations={violations} "
            f"time={elapsed:.1f}s")
    assert violations == 0 and checked > 0
    assert elapsed < 60.0


def test_accept_07_ergodic_rate_envelope(instrumented):
    items, _ = instrumented
    checked = 0
    violations = 0
    for it in items:
        state, cfg, d0 = it["state"], it["cfg"], it["d0"]
        g = cfg.gamma
        env = RateEnvelope(d0=d0, lambda_min=1.0, sigma=cfg.sigma)
        for j in range(1, state.n_extragradient + 1):
            e = drs_ergodic(state, upto=j)
            rho, eps = ergodic_bound(env, j)
            checked += 1
            bad = (g * float(np.linalg.norm(e.a + e.b)) > rho * (1 + 1e-10)
                   or e.eps_a + e.eps_b > (eps / g) * (1 + 1e-10)
                   or e.eps_a < -1e-10 or e.eps_b < -1e-10)
            violations += bad
    ok = violations == 0 and checked > 0
    _accept(7, "ergodic rate envelope", ok,
            f"checks={checked} violations={violations}")
    assert violations == 0 and checked > 0


def test_accept_08_null_step_decay(instrumented):
    items, _ = instrumented
    nulls = 0
    violations = 0
    for it in items:
        state, cfg = it["state"], it["cfg"]
        beta = 0
        for t in state.trace:
            if t.step == NULL:
                r_bound, e_bound = null_step_bounds(cfg.tau0, cfg.sigma,
                                                    beta, cfg.theta)
                nulls += 1
                if (t.residual > r_bound * (1 + 1e-10)
                        or cfg.gamma * t.eps_b > e_bound * (1 + 1e-10)):
                    violations += 1
                beta += 1
    ok = violations == 0 and nulls > 0
    _accept(8, "null step decay bounds", ok,
            f"null_steps={nulls} violations={violations}")
    assert violations == 0 and nulls > 0


def test_accept_09_inner_linear_decay(instrumented):
    items, _ = instrumented
    cconst = ((1 + SIGMA) ** 2 + SIGMA ** 2) / (1 - SIGMA ** 2)
    checked = 0
    violations = 0
    worst_inner = 0
    for seed in range(200, 220):
        inst, ops, cfg, prob, z0 = _drt_setup(10, seed)
        g = cfg.gamma
        alpha = RateEnvelope(d0=1.0, lambda_min=g, sigma=SIGMA,
                             mu=1.0 / g).alpha
        d_zb = float(np.linalg.norm(z0 - box_solution(inst)))
        for tau_hat in (1e-8, cfg.tau0):
            certs = []
            p = TsengProblem(C=ops.C, F1=ops.F1, F2=ops.F2, gamma=g,
                             sigma=SIGMA)
            out = tseng_solve(p, z0, tau_hat, cert_log=certs)
            worst_inner = max(worst_inner, out.inner_iters)
            for j, c in enumerate(certs, start=1):
                lhs = (float(np.dot(g * c.v, g * c.v))
                       + 2.0 * g * c.eps)
                bound = cconst * (1 - alpha) ** (j - 1) * d_zb ** 2
                checked += 1
                if lhs > bound * (1 + 1e-10):
                    violations += 1
    # companion regression: fitted inner-count envelope on the logged runs
    worst_ratio = 0.0
    for it in items:
        d = 2.0 * it["d0"] + it["d0b"]
        for cnt, tau_prev in zip(it["inner_log"], it["taus"]):
            envelope = 1.0 + max(0.0, np.log(d / np.sqrt(tau_prev)))
            worst_ratio = max(worst_ratio, cnt / envelope)
    ok = (violations == 0 and checked > 0 and worst_inner <= 50
          and worst_ratio <= 2.0)
    _accept(9, "inner linear decay", ok,
            f"checks={checked} violations={violations} "
            f"max_inner={worst_inner} count_ratio={worst_ratio:.2f}")
    assert violations == 0 and checked > 0
    assert worst_inner <= 50
    assert worst_ratio <= 2.0


def test_accept_10_fejer_boundedness(instrumented):
    items, _ = instrumented
    checked = 0
    violations = 0
    for it in items:
        state, z0, z_inf, d0 = it["state"], it["z0"], it["z_inf"], it["d0"]
        for z in it["zs"]:
            checked += 1
            if np.linalg.norm(z - z0) > 2.0 * d0 * (1 + 1e-10):
                violations += 1
        dists = [d0]
        for z, t in zip(it["zs"], state.trace):
            if t.step == EXTRAGRADIENT:
                dists.append(float(np.linalg.norm(z - z_inf)))
        for a, b in zip(dists, dists[1:]):
            checked += 1
            if b > a * (1 + 1e-10) + 1e-12:
                violations += 1
    ok = violations == 0 and checked > 0
    _accept(10, "fejer monotonicity and boundedness", ok,
            f"checks={checked} violations={violations}")
    assert violations == 0 and checked > 0


def _ergodic_gap(state, j) -> float:
    # largest gap between drs_ergodic over the first j extragradient
    # indices and the transportation formula at weights 1/j, both halves
    got = drs_ergodic(state, upto=j)
    w = np.full(j, 1.0 / j)
    want_b = transport_ergodic(
        [EnlargementTriple(x, b, e) for x, b, e in
         zip(state.hist_x[:j], state.hist_b[:j], state.hist_eps_b[:j])], w)
    want_a = transport_ergodic(
        [EnlargementTriple(y, a, 0.0) for y, a in
         zip(state.hist_y[:j], state.hist_a[:j])], w)
    return max(float(np.max(np.abs(got.x - want_b.z))),
               float(np.max(np.abs(got.b - want_b.v))),
               abs(got.eps_b - want_b.eps),
               float(np.max(np.abs(got.y - want_a.z))),
               float(np.max(np.abs(got.a - want_a.v))),
               abs(got.eps_a - want_a.eps))


def _monotone_history(rng, n, m):
    # m points z_l with v_l = W z_l for one random PSD W
    M = rng.standard_normal((n, n))
    W = M.T @ M
    zs = [rng.standard_normal(n) * 3.0 for _ in range(m)]
    return zs, [W @ z for z in zs]


def test_accept_11_transport_formula_oracle(cert_runs):
    runs, _ = cert_runs
    worst = 0.0
    prefixes = 0
    for run in runs:
        state = run["state"]
        for j in range(1, state.n_extragradient + 1):
            worst = max(worst, _ergodic_gap(state, j))
            prefixes += 1
    # seeded random monotone histories loaded into a hand-built state
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 13))
        state = DrsState(np.zeros(n), 1.0)
        state.hist_x, state.hist_b = _monotone_history(rng, n, m)
        state.hist_y, state.hist_a = _monotone_history(rng, n, m)
        state.hist_eps_b = [float(rng.random()) for _ in range(m)]
        worst = max(worst, _ergodic_gap(state, m))
    ok = worst <= 1e-12 and prefixes > 0
    _accept(11, "transportation formula oracle", ok,
            f"histories=1000 max_gap={worst:.2e}")
    assert ok
