"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from itertools import combinations

from .bench import (_ALGOS, _STOPS, BenchSpec, format_summary, run_batch,
                    summarize, summary_csv_path, write_records,
                    write_summary_csv)

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # BenchSpec owns the defaults and bench the choices; help shows them
    d = {f.name: f.default for f in fields(BenchSpec)}
    p = _Parser(
        prog="drsplit-bench",
        description="Solve seeded batches of box/equality-constrained QP "
                    "instances with the splitting solvers and print "
                    "min/max/mean summary statistics.")
    p.add_argument("--n", type=int, required=True, help="problem dimension")
    p.add_argument("--instances", type=int, default=d["instances"],
                   help="batch size (default %(default)s)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--definite", dest="definite", action="store_true",
                      default=d["definite"],
                      help="positive definite Q (default %(default)s)")
    kind.add_argument("--semidefinite", dest="definite",
                      action="store_false", help="rank-deficient Q")
    p.add_argument("--algo", choices=_ALGOS, default=d["algo"],
                   help="solver (default %(default)s)")
    p.add_argument("--stop", choices=_STOPS, default=d["stop"],
                   help="stopping rule of drt (default %(default)s); tos "
                        "and rfdrs run at unit relaxation, where both rules "
                        "are one test")
    p.add_argument("--tol", type=float, default=d["tol"],
                   help="stopping tolerance (default %(default)s)")
    p.add_argument("--sigma", type=float, default=d["sigma"],
                   help="relative-error parameter (default %(default)s)")
    p.add_argument("--theta", type=float, default=d["theta"],
                   help="null-step shrink factor (default %(default)s)")
    p.add_argument("--seed", type=int, default=d["seed"],
                   help="master seed; instance i uses seed+i "
                        "(default %(default)s)")
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
        spec = BenchSpec(**{f.name: getattr(args, f.name)
                            for f in fields(BenchSpec)})
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

    t0 = time.perf_counter()
    records = run_batch(spec, trace_path=args.trace)
    # rounded to the printed millisecond, so that the printed parts add up
    wall = round(time.perf_counter() - t0, 3)
    solvers = round(sum(r.time_s for r in records if r.error is None), 3)
    failed = [r for r in records if r.error is not None]
    table = summarize(records)
    stdout_closed = False
    try:
        print(format_summary(table, spec=spec, errors=len(failed)))
        print(f"batch wall {wall:.3f} s = solvers {solvers:.3f} s (sum of "
              f"time_s) + rest {wall - solvers:.3f} s (instances with "
              "eigvalsh, reference oracle, solver set-up, failed instances, "
              "trace)")
        sys.stdout.flush()
    except BrokenPipeError:
        # the SIGPIPE recipe of the Python docs: point stdout at devnull, so
        # that the flush at exit does not raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        stdout_closed = True

    if args.out:
        write_records(records, args.out)
        write_summary_csv(table, summary)
    for r in failed:
        print(f"instance {r.instance}: {r.error}", file=sys.stderr)
    return 3 if stdout_closed else 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
