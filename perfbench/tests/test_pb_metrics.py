"""Metric names against BENCHMARK.json, and a tiny traced run end to end."""

import json
from pathlib import Path

import run
from drsbench.metrics import END_TO_END, LAYER_METRICS
from drsbench.workloads import (SEED_STRIDE, WARMUP_SEED, WORKLOADS,
                                instance_seed_base)

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    # spectral-n500 runs from run.py but is left out of BENCHMARK.json:
    # its n=500 figures spread past the bounds on the shared host
    assert [w["name"] for w in SPEC["workloads"]] == ["paper-n100",
                                                      "faces-certified-n100"]
    assert list(WORKLOADS) == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == {k: v for k, v in END_TO_END.items() if k != "failed_frac"}
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == LAYER_METRICS


def test_traced_and_untraced_passes_agree_on_every_count(tmp_path):
    wl = WORKLOADS["paper-n100"](out_dir=tmp_path, base=123_000)
    wl.batch = 3
    wl.setup()
    r = run.Run(wl, out_dir=tmp_path)
    r.measure_traced()
    assert r.problems == []
    assert (r.gate.attempted, r.gate.failed) == (12, 0)
    plain, traced = r.passes
    assert traced["traced"] and not plain["traced"]
    assert plain["counts"] == traced["counts"]
    layers = r.per_layer()
    assert list(layers) == [name for name, _ in LAYER_METRICS]
    assert layers["drt.drt_solve.calls"] == 3
    assert layers["baselines.run_baseline.calls"] == 3
    assert layers["hpe.verify_hpe_inequality.calls"] == 0
    assert layers["drt.outer_iters"] == layers["drs.drs_iterate.calls"]
    assert layers["drt.inner_iters"] == layers["tseng.tseng_step.calls"]
    assert (tmp_path / "spans-paper-n100.npz").is_file()


def test_every_workload_times_at_least_100_drt_solves():
    drt_per_batch = {"paper-n100": WORKLOADS["paper-n100"].batch,
                     "spectral-n500": WORKLOADS["spectral-n500"].algos["drt"],
                     "faces-certified-n100":
                         WORKLOADS["faces-certified-n100"].batch}
    for name, wl in WORKLOADS.items():
        assert wl.batches * drt_per_batch[name] >= 100


def test_any_integer_seed_gets_instances_apart_from_the_warm_up():
    seeds = [0, 1, -1, 2 ** 31, 2 ** 40 + 3, -(2 ** 63) + 5]
    bases = [instance_seed_base(s) for s in seeds]
    assert bases[:2] == [0, SEED_STRIDE]
    assert len(set(bases)) == len(bases)
    assert all(0 <= b and b + SEED_STRIDE <= WARMUP_SEED for b in bases)
    assert bases == [instance_seed_base(s) for s in seeds]


def test_untraced_run_reports_all_six_and_repeats_its_batches(tmp_path):
    wl = WORKLOADS["paper-n100"](out_dir=tmp_path, base=456_000)
    wl.batch = 2
    wl.batches = 2
    wl.rounds = 3
    wl.setup()
    r = run.Run(wl, out_dir=tmp_path)
    probed = r.measure(lambda: len(r.passes), probes=3)
    assert [p["batch"] for p in r.passes] == [0, 1] * wl.rounds
    assert probed == [0, 2, 4]
    assert r.problems == []
    e2e = r.end_to_end(setup_s=0.5)
    assert list(e2e) == list(END_TO_END)
    assert e2e["failed_frac"] == 0.0 and e2e["solves_per_s"] > 0
    assert e2e["drt_solve_ms_p50"] <= e2e["drt_solve_ms_p90"]
    assert r.drt_samples == 4


def test_solves_and_the_time_around_them_count_at_their_fastest_round(
        tmp_path):
    r = run.Run(WORKLOADS["paper-n100"](out_dir=tmp_path), out_dir=tmp_path)
    r.passes = [dict(batch=0, ok=2, wall=1.0, solve_s=[0.3, 0.5],
                     drt_ms=[1.0, 2.0]),
                dict(batch=0, ok=2, wall=0.9, solve_s=[0.4, 0.4],
                     drt_ms=[1.5, 1.0])]
    r.gate.attempted = 4
    e2e = r.end_to_end(setup_s=0.5)
    # solves 0.3 + 0.4, the rest of the batch 0.9 - 0.8
    assert abs(e2e["solves_per_s"] - 2 / 0.8) < 1e-12
    assert e2e["drt_solve_ms_p50"] == 1.0


def test_perturbed_solution_shows_in_failed_frac(tmp_path):
    paper = WORKLOADS["paper-n100"]

    class Perturbed(paper):
        def run_pass(self, tracer, k):
            solves = super().run_pass(tracer, k)
            solves[0].solution = solves[0].solution + 0.5
            return solves

    wl = Perturbed(out_dir=tmp_path, base=789_000)
    wl.batch = 2
    wl.batches = 1
    wl.rounds = 1
    wl.setup()
    r = run.Run(wl, out_dir=tmp_path)
    r.measure()
    e2e = r.end_to_end(setup_s=0.5)
    assert (r.gate.failed, r.gate.attempted) == (1, 4)
    assert e2e["failed_frac"] == 0.25
