"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations

from .bench import (BenchSpec, format_summary, run_batch, summarize,
                    summary_csv_path, write_records, write_summary_csv)

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="drsplit-bench",
        description="Solve seeded batches of box/equality-constrained QP "
                    "instances with the splitting solvers and print "
                    "min/max/mean summary statistics.")
    p.add_argument("--n", type=int, required=True, help="problem dimension")
    p.add_argument("--instances", type=int, default=100,
                   help="batch size (default 100)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--definite", dest="definite", action="store_true",
                      default=True, help="positive definite Q (default)")
    kind.add_argument("--semidefinite", dest="definite",
                      action="store_false", help="rank-deficient Q")
    p.add_argument("--algo", choices=("drt", "rfdrs", "tos"), default="drt",
                   help="solver (default drt)")
    p.add_argument("--stop", choices=("delta", "residual"), default="delta",
                   help="stopping rule of drt (default delta); tos and rfdrs "
                        "run at unit relaxation, where both rules are one "
                        "test")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="stopping tolerance (default 1e-6)")
    p.add_argument("--sigma", type=float, default=0.99,
                   help="relative-error parameter (default 0.99)")
    p.add_argument("--theta", type=float, default=0.01,
                   help="null-step shrink factor (default 0.01)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; instance i uses seed+i (default 0)")
    p.add_argument("--out", metavar="CSV",
                   help="write per-instance records here and the summary "
                        "to the sibling *.summary.csv")
    p.add_argument("--trace", metavar="PATH",
                   help="write a per-iteration step trace (drt only)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace and args.algo != "drt":
        parser.error("--trace requires --algo drt")
    try:
        spec = BenchSpec(n=args.n, instances=args.instances,
                         definite=args.definite, algo=args.algo,
                         stop=args.stop, tol=args.tol, sigma=args.sigma,
                         theta=args.theta, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    # fail before the batch, not after it, on an output path that cannot be made
    summary = summary_csv_path(args.out) if args.out else None
    outputs = [(name, path) for name, path in (
        ("--out", args.out), ("the --out summary", summary),
        ("--trace", args.trace)) if path]
    for name, path in outputs:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            parser.error(f"{name}: directory {parent!r} does not exist")
        if os.path.isdir(path):
            parser.error(f"{name}: {path!r} is a directory")
    # of two outputs that resolve to one file, the one written last
    # replaces the other
    for (name, path), (other, other_path) in combinations(outputs, 2):
        if os.path.realpath(path) == os.path.realpath(other_path):
            parser.error(f"{name} and {other} are one file: {path!r}")

    stats: dict = {}
    records = run_batch(spec, trace_path=args.trace, stats=stats)
    failed = [r for r in records if r.error is not None]
    table = summarize(records)
    print(format_summary(table, spec=spec, errors=len(failed)))
    est = stats.get("estimate_time_s")
    if est is not None:
        print(f"instance set-up (eigvalsh of Q, rfdrs beta): {est:.3f} s "
              "total (excluded from time_s)")

    if args.out:
        write_records(records, args.out)
        write_summary_csv(table, summary)
    for r in failed:
        print(f"instance {r.instance}: {r.error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
