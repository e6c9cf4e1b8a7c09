"""Metric names, units and the arithmetic that turns spans into them.

``BENCHMARK.json`` lists the same names; ``tests/test_pb_metrics.py``
keeps the two in step.
"""

from __future__ import annotations

from .tracer import SpanStat

__all__ = ["END_TO_END", "LAYER_METRICS", "exact_counts", "layer_metrics",
           "merge"]

# failed_frac is printed with the others but left out of BENCHMARK.json:
# it is 0 on a correct run, and a relative bound on 0 means nothing.  The
# result line carries it as "attempted" and "failed".
END_TO_END = {
    "solves_per_s": "1/s",
    "drt_solve_ms_p50": "ms",
    "drt_solve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}

# (name, unit); a name ending in .calls, .s or .self_s reads the span of
# the same prefix, the others come from exact_counts or the run itself.
LAYER_METRICS = [
    ("qp.generate_instance.calls", "count"), ("qp.generate_instance.s", "s"),
    ("qp.estimate_eta.calls", "count"), ("qp.estimate_eta.s", "s"),
    ("qp.estimate_beta_V.calls", "count"), ("qp.estimate_beta_V.s", "s"),
    ("qp.qp_operators.self_s", "s"),
    ("qp.reference_solution.calls", "count"),
    ("qp.reference_solution.self_s", "s"),
    ("drt.drt_solve.calls", "count"), ("drt.drt_solve.self_s", "s"),
    ("drt.outer_iters", "count"), ("drt.null_steps", "count"),
    ("drt.inner_iters", "count"), ("drt.f2_evals", "count"),
    ("drs.drs_iterate.calls", "count"), ("drs.drs_iterate.self_s", "s"),
    ("drs.extragrad_ratio", "ratio"), ("drs.drs_ergodic.s", "s"),
    ("tseng.tseng_solve.self_s", "s"), ("tseng.tseng_step.calls", "count"),
    ("tseng.tseng_step.self_s", "s"), ("tseng.inner_per_outer", "ratio"),
    ("operators.box_resolvent.calls", "count"),
    ("operators.box_resolvent.s", "s"),
    ("operators.nullspace_resolvent.calls", "count"),
    ("operators.nullspace_resolvent.s", "s"),
    ("operators.project_nullspace.calls", "count"),
    ("operators.project_nullspace.s", "s"),
    ("hpe.verify_hpe_inequality.calls", "count"),
    ("hpe.verify_hpe_inequality.s", "s"),
    ("baselines.run_baseline.calls", "count"),
    ("baselines.run_baseline.self_s", "s"), ("baselines.iters", "count"),
    ("bench.run_batch.self_s", "s"), ("bench.run_single.self_s", "s"),
    ("bench.write_records.s", "s"),
    ("trace.overhead_s", "s"),
]

_NO_SPAN = SpanStat(0, 0.0, 0.0)


def exact_counts(solves, summary: dict[str, SpanStat]) -> dict[str, int]:
    """Work counts of one pass; they must repeat bit for bit across passes."""
    drt = [s.record for s in solves if s.algo == "drt" and s.record]
    base = [s.record for s in solves if s.algo != "drt" and s.record]
    return {
        "solves": len(solves),
        "drt.outer_iters": sum(r.iters for r in drt),
        "drt.extragrad": sum(r.extragrad for r in drt),
        "drt.null_steps": sum(r.null for r in drt),
        "drt.inner_iters": sum(r.inner for r in drt),
        "drt.f2_evals": sum(r.f2_evals for r in drt),
        "baselines.iters": sum(r.iters for r in base),
        "qp.estimate_eta.calls":
            summary.get("qp.estimate_eta", _NO_SPAN).calls,
        "qp.estimate_beta_V.calls":
            summary.get("qp.estimate_beta_V", _NO_SPAN).calls,
    }


def layer_metrics(summary: dict[str, SpanStat], counts: dict[str, int],
                  overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from summed spans and counts."""
    outer = counts["drt.outer_iters"]
    derived = {
        "drs.extragrad_ratio": counts["drt.extragrad"] / outer,
        "tseng.inner_per_outer": counts["drt.inner_iters"] / outer,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _ in LAYER_METRICS:
        if name in derived:
            out[name] = derived[name]
        elif name in counts:
            out[name] = counts[name]
        else:
            span, field = name.rsplit(".", 1)
            stat = summary.get(span, _NO_SPAN)
            out[name] = {"calls": stat.calls, "s": stat.total_s,
                         "self_s": stat.self_s}[field]
    return out


def merge(summaries) -> dict[str, SpanStat]:
    """Sum span summaries of several passes name by name."""
    out: dict[str, SpanStat] = {}
    for summary in summaries:
        for name, st in summary.items():
            o = out.get(name, _NO_SPAN)
            out[name] = SpanStat(o.calls + st.calls, o.total_s + st.total_s,
                                 o.self_s + st.self_s)
    return out
