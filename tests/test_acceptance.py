"""Acceptance gate: end-to-end checks of the certified-inexactness chain.

Checks 01-03 and 06-11 run on definite instances of both QP families:
the paper family, whose optimum is the origin, and the faces family,
whose optimum lies on faces of the box and inside it.  Checks 04 and 05
read the paper's benchmark table and run on the paper family only.
Each test prints one `ACCEPT NN [family] <name>: PASS(...)` (or FAIL)
line per family; run with -s to see them on success.  Heavy shared runs
live in module-scoped fixtures so the whole gate stays within its time
budget.
"""

import math
import time

import numpy as np
import pytest

from drsplit.bench import BenchSpec, initial_point, run_batch, summarize
from drsplit.drs import DrsState, envelope, outer_certificates
from drsplit.drt import delta_stop, drt_solve, tolerance_stop
from drsplit.hpe import verify_hpe_inequality
from drsplit.qp import (
    drt_problem,
    faces_instance,
    generate_instance,
    nearest_zero,
    reference_solution,
)
from drsplit.baselines import run_baseline
from drsplit.tseng import CertBlock, tseng_solve
from oracles import (EnlargementTriple, box_qp_solve, ergodic_prefix,
                     kkt_enumerate, transport_ergodic)

SIGMA = 0.99
THETA = 0.01
FAMILIES = {"paper": generate_instance, "faces": faces_instance}


def _accept(num, name, check, families=tuple(FAMILIES)):
    """Print one line per family for check(family) -> (ok, detail)."""
    failed = []
    for family in families:
        ok, detail = check(family)
        print(f"ACCEPT {num:02d} [{family}] {name}: "
              f"{'PASS' if ok else 'FAIL'}({detail})")
        if not ok:
            failed.append(family)
    assert not failed, f"ACCEPT {num:02d} failed on {failed}"


def _drt_setup(family, n, seed, tol=1e-6):
    inst = FAMILIES[family](n, True, seed)
    z0 = initial_point(n, seed)
    prob = drt_problem(inst, z0, sigma=SIGMA, theta=THETA, tol=tol)
    return inst, prob.cfg, prob, z0


def _cert_runs(family):
    t0 = time.perf_counter()
    runs = []
    plan = [(2, range(34)), (10, range(100, 133)), (50, range(200, 233))]
    for n, seeds in plan:
        for seed in seeds:
            inst, cfg, prob, z0 = _drt_setup(family, n, seed)
            state = DrsState.initial(z0, cfg)
            inner_certs = []
            drt_solve(prob, delta_stop(1e-6), state,
                      inner_cert_log=inner_certs)
            runs.append(dict(n=n, seed=seed, state=state, cfg=cfg,
                             inner_certs=inner_certs))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cert_runs():
    """Per family, 100 solves across n in {2, 10, 50} with full state and
    inner logs."""
    return {family: _cert_runs(family) for family in FAMILIES}


def _instrumented(family):
    t0 = time.perf_counter()
    items = []
    for seed in range(20):
        inst, cfg, prob, z0 = _drt_setup(family, 10, seed)
        state = DrsState.initial(z0, cfg)
        drt_solve(prob, delta_stop(1e-6), state)
        z_inf, d0 = nearest_zero(inst, reference_solution(inst), cfg.gamma,
                                 z0)
        x_box = box_qp_solve(inst.Q, -inst.e, inst.lo, inst.hi)
        d0b = float(np.linalg.norm(z0 - x_box))
        items.append(dict(cfg=cfg, state=state, z0=z0, z_inf=z_inf, d0=d0,
                          d0b=d0b, envelope=envelope(state, cfg, d0)))
    return items, time.perf_counter() - t0


@pytest.fixture(scope="module")
def instrumented():
    """Per family, 20 n=10 solves with full state, the zero nearest the
    start and its distance d0, and drs.envelope's reading at d0."""
    return {family: _instrumented(family) for family in FAMILIES}


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
    def check(family):
        runs, elapsed = cert_runs[family]
        total = 0
        bad = 0
        for run in runs:
            for cert in outer_certificates(run["state"], run["cfg"]):
                total += 1
                if not verify_hpe_inequality(cert):
                    bad += 1
        return (bad == 0 and total > 0 and elapsed < 30.0,
                f"steps={total} failures={bad} runs={len(runs)} "
                f"time={elapsed:.1f}s")

    _accept(1, "outer hpe certificates", check)


def test_accept_02_inner_certificates(cert_runs):
    def check(family):
        runs, elapsed = cert_runs[family]
        total = 0
        bad = 0
        for run in runs:
            for cert in run["inner_certs"]:
                total += 1
                if (cert.lam != run["cfg"].gamma
                        or not verify_hpe_inequality(cert)):
                    bad += 1
        return (bad == 0 and total > 0 and elapsed < 30.0,
                f"steps={total} failures={bad} time={elapsed:.1f}s")

    _accept(2, "inner tseng certificates", check)


def test_accept_03_oracle_equivalence():
    def check(family):
        t0 = time.perf_counter()
        plan = [(2, range(13)), (3, range(13)), (4, range(12)),
                (5, range(12))]
        worst_drt = worst_tos = worst_rfdrs = 0.0
        count = 0
        for n, seeds in plan:
            for seed in seeds:
                inst, cfg, prob, z0 = _drt_setup(family, n, seed, tol=1e-8)
                z_star = kkt_enumerate(inst)
                _, quad = drt_solve(prob, tolerance_stop(cfg),
                                    DrsState.initial(z0, cfg))
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
        return (count == 50 and worst_drt < 1e-4 and worst_tos < 1e-5
                and worst_rfdrs < 1e-5 and elapsed < 60.0,
                f"instances={count} drt_gap={worst_drt:.2e} "
                f"tos_gap={worst_tos:.2e} rfdrs_gap={worst_rfdrs:.2e} "
                f"time={elapsed:.1f}s")

    _accept(3, "solution oracle equivalence", check)


def test_accept_04_iteration_count_bands(table_batches):
    drt = table_batches["drt_delta"]
    tos = table_batches["tos_delta"]
    elapsed = table_batches["main_elapsed"]

    def check(family):
        s_drt = summarize(drt)
        s_tos = summarize(tos)
        m_iters = s_drt["iters"][2]
        m_extra = s_drt["extragrad"][2]
        m_null = s_drt["null"][2]
        m_tos = s_tos["iters"][2]
        return (all(r.error is None for r in drt + tos)
                and 7.6 <= m_iters <= 30.4 and 5.1 <= m_extra <= 20.5
                and 1.8 <= m_null <= 7.2 and 4.7 <= m_tos <= 18.7
                and elapsed < 120.0,
                f"iters={m_iters:.2f} extragrad={m_extra:.2f} "
                f"null={m_null:.2f} tos={m_tos:.2f} time={elapsed:.1f}s")

    _accept(4, "iteration count bands", check, families=("paper",))


def test_accept_05_residual_stop_band(table_batches):
    resid = table_batches["drt_resid"]
    delta = table_batches["drt_delta"]

    def check(family):
        m_resid = summarize(resid)["iters"][2]
        m_delta = summarize(delta)["iters"][2]
        return (all(r.error is None for r in resid)
                and 6.8 <= m_resid <= 27.3 and m_resid <= m_delta + 2.0,
                f"iters={m_resid:.2f} delta_iters={m_delta:.2f}")

    _accept(5, "residual stop band", check, families=("paper",))


def _given_taus(state):
    # the tau each step's B-solve was given: the state's own start, then
    # the tau the step before it left
    return [state.tau0] + [t.tau for t in state.trace[:-1]]


def _envelope_line(items, bound):
    # drs.envelope's reading of one bound, over the logged runs
    checks = [it["envelope"][bound] for it in items]
    checked = sum(c.checked for c in checks)
    violations = sum(c.violations for c in checks)
    worst = np.max([c.worst for c in checks], axis=0)
    late = np.max([c.late for c in checks], axis=0)
    return (violations == 0 and checked > 0,
            f"checks={checked} violations={violations} "
            f"rho_ratio={worst[0]:#.2g} eps_ratio={worst[1]:#.2g} "
            f"late_rho_ratio={late[0]:#.2g} late_eps_ratio={late[1]:#.2g}")


def test_accept_06_pointwise_rate_envelope(instrumented):
    def check(family):
        items, elapsed = instrumented[family]
        ok, detail = _envelope_line(items, "pointwise")
        return ok and elapsed < 60.0, f"{detail} time={elapsed:.1f}s"

    _accept(6, "pointwise rate envelope", check)


def test_accept_07_ergodic_rate_envelope(instrumented):
    _accept(7, "ergodic rate envelope",
            lambda family: _envelope_line(instrumented[family][0], "ergodic"))


def test_accept_08_null_step_decay(instrumented):
    _accept(8, "null step decay bounds",
            lambda family: _envelope_line(instrumented[family][0],
                                          "null-step"))


def test_accept_09_inner_linear_decay(instrumented):
    # the inner solve is HPE at lam = gamma on an operator that is
    # (1/gamma)-strongly monotone, so lam*mu = 1 in the linear-rate base
    cconst = ((1 + SIGMA) ** 2 + SIGMA ** 2) / (1 - SIGMA ** 2)
    alpha = 1.0 / (1.0 / 2.0 + 1.0 / (1 - SIGMA ** 2))

    def check(family):
        checked = 0
        violations = 0
        worst_inner = 0
        for seed in range(200, 220):
            inst, cfg, prob, z0 = _drt_setup(family, 10, seed)
            g = cfg.gamma
            x_box = box_qp_solve(inst.Q, -inst.e, inst.lo, inst.hi)
            d_zb = float(np.linalg.norm(z0 - x_box))
            for tau_hat in (1e-8, cfg.tau0):
                certs = []
                with CertBlock(prob.tseng, certs) as block:
                    *_, inner = tseng_solve(prob.tseng, z0, tau_hat,
                                            cert_log=block)
                worst_inner = max(worst_inner, inner)
                for j, c in enumerate(certs, start=1):
                    lhs = (float(np.dot(g * c.v, g * c.v))
                           + 2.0 * g * c.eps)
                    bound = cconst * (1 - alpha) ** (j - 1) * d_zb ** 2
                    checked += 1
                    if lhs > bound * (1 + 1e-10):
                        violations += 1
        # companion regression: fitted inner-count envelope on the logged
        # runs
        worst_ratio = 0.0
        for it in instrumented[family][0]:
            d = 2.0 * it["d0"] + it["d0b"]
            trace = it["state"].trace
            for t, tau in zip(trace, _given_taus(it["state"])):
                envelope = 1.0 + max(0.0, np.log(d / np.sqrt(tau)))
                worst_ratio = max(worst_ratio, t.inner / envelope)
        return (violations == 0 and checked > 0 and worst_inner <= 50
                and worst_ratio <= 2.0,
                f"checks={checked} violations={violations} "
                f"max_inner={worst_inner} count_ratio={worst_ratio:.2f}")

    _accept(9, "inner linear decay", check)


def test_accept_10_fejer_boundedness(instrumented):
    def check(family):
        items, _ = instrumented[family]
        checked = 0
        violations = 0
        for it in items:
            state, z0, z_inf, d0 = (it["state"], it["z0"], it["z_inf"],
                                    it["d0"])
            # the iterate after each extragradient step; null steps keep z
            dists = [d0]
            for z in state.hist_z_prev[1:] + [state.z]:
                checked += 1
                if np.linalg.norm(z - z0) > 2.0 * d0 * (1 + 1e-10):
                    violations += 1
                dists.append(float(np.linalg.norm(z - z_inf)))
            for a, b in zip(dists, dists[1:]):
                checked += 1
                if b > a * (1 + 1e-10) + 1e-12:
                    violations += 1
        return (violations == 0 and checked > 0,
                f"checks={checked} violations={violations}")

    _accept(10, "fejer monotonicity and boundedness", check)


def _ergodic_gap(state, j) -> float:
    # largest gap between drs_ergodic over the first j extragradient
    # indices and the transportation formula at weights 1/j, both halves,
    # each quantity's gap over its own scale: an average's summed
    # magnitudes.  For an averaged enlargement that is
    # sum (|eps_l| + <|z_l|, |v_l|>)/j, the round-off scale of its inner
    # products: on A's half <y_l, a_l> vanishes by structure, so
    # sum |<z_l, v_l>| would be 0 with round-off left in the gap
    got = ergodic_prefix(state, j)
    w = np.full(j, 1.0 / j)
    worst = 0.0
    for zs, vs, eps, zbar, vbar, ebar in (
            (state.hist_x[:j], state.hist_b[:j], state.hist_eps_b[:j],
             got.x, got.b, got.eps_b),
            (state.hist_y[:j], state.hist_a[:j], [0.0] * j,
             got.y, got.a, got.eps_a)):
        want = transport_ergodic(
            [EnlargementTriple(z, v, e) for z, v, e in zip(zs, vs, eps)], w)
        Z, V = np.abs(np.array(zs)), np.abs(np.array(vs))
        for gap, scale in (
                (np.abs(zbar - want.z).max(), Z.sum(axis=0).max() / j),
                (np.abs(vbar - want.v).max(), V.sum(axis=0).max() / j),
                (abs(ebar - want.eps),
                 (np.abs(eps).sum() + np.einsum("ij,ij->", Z, V)) / j)):
            # a zero scale (every term 0) admits only a zero gap
            worst = max(worst, float(gap / scale) if scale > 0
                        else 0.0 if gap == 0 else math.inf)
    return worst


def _monotone_history(rng, n, m):
    # m points z_l with v_l = W z_l for one random PSD W
    M = rng.standard_normal((n, n))
    W = M.T @ M
    zs = [rng.standard_normal(n) * 3.0 for _ in range(m)]
    return zs, [W @ z for z in zs]


def test_accept_11_transport_formula_oracle(cert_runs):
    # seeded random monotone histories loaded into a hand-built state
    rng = np.random.default_rng(2024)
    random_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 13))
        state = DrsState(np.zeros(n), 1.0)
        state.hist_x, state.hist_b = _monotone_history(rng, n, m)
        state.hist_y, state.hist_a = _monotone_history(rng, n, m)
        state.hist_eps_b = [float(rng.random()) for _ in range(m)]
        random_worst = max(random_worst, _ergodic_gap(state, m))

    def check(family):
        worst = 0.0
        prefixes = 0
        for run in cert_runs[family][0]:
            state = run["state"]
            for j in range(1, state.n_extragradient + 1):
                worst = max(worst, _ergodic_gap(state, j))
                prefixes += 1
        return (worst <= 1e-12 and random_worst <= 1e-12 and prefixes > 0,
                f"prefixes={prefixes} max_scaled_gap={worst:.2e} "
                f"histories=1000 history_scaled_gap={random_worst:.2e}")

    _accept(11, "transportation formula oracle", check)
