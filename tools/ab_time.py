#!/usr/bin/env python3
"""Paired A/B timing of drt solves: src/drsplit (the change) against REF.

    python tools/ab_time.py REF [--family paper|faces] [--n 100]
                                [--solves 30] [--reps 8]

REF is a git revision of this repository, extracted with `git archive
REF src/drsplit` into a temporary directory, or a package directory.  It
is copied there under the package name drsplit_ref and imported next to
src/drsplit in one process; drsplit's relative imports make the copy
work unchanged.  Each copy builds instance j (j < solves) with its own
functions: qp.generate_instance(n, True, j) for paper or
qp.faces_instance(n, False, j) for faces, bench.initial_point(n, j) and
qp.drt_problem at sigma 0.99, theta 0.01, tol 1e-6, the copy that builds
first alternating with j (building every change instance first read 1%
slower A/A).  A solve is drt_solve with delta_stop(1e-6) from
DrsState.initial, timed alone.

Each repetition runs every solve 3 times with each copy, the copies
taking turns and the copy that goes first alternating from solve to
solve and from repetition to repetition, and keeps the fastest run of
each.  It prints the median over solves of the ratio change/REF; the
last line is the median over repetitions.  Paired in one process, the
ratio holds where absolute times drift by a third over minutes.

Every pair of runs compares the two records field by field, time_s
aside.  On a difference the script prints FLAGGED with the fields and
exits 1 before reporting that repetition: a ratio over different work
is not a speed-up.  A usage error or a REF that cannot be read exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_NAME = "drsplit_ref"
RUNS = 3
TOL = 1e-6


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ab_time.py",
        description="Median per-solve time ratio of src/drsplit over REF, "
                    "on the same drt solves in one process.")
    p.add_argument("ref", metavar="REF",
                   help="git revision or package directory")
    p.add_argument("--family", choices=("paper", "faces"), default="paper",
                   help="instance family (default %(default)s)")
    p.add_argument("--n", type=_positive, default=100,
                   help="problem dimension (default %(default)s)")
    p.add_argument("--solves", type=_positive, default=30,
                   help="instances per repetition (default %(default)s)")
    p.add_argument("--reps", type=_positive, default=8,
                   help="repetitions (default %(default)s)")
    return p


def _ref_package(ref: str, tmp: str) -> str:
    """The directory of REF's drsplit package: ref itself or its archive."""
    if os.path.isdir(ref):
        return ref
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref,
                           "src/drsplit"], capture_output=True)
    if proc.returncode != 0:
        raise ValueError(proc.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        # the data filter (Python 3.12, backported) refuses unsafe members
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(tmp, **safe)
    return os.path.join(tmp, "src", "drsplit")


def _builder(package: str, family: str, n: int):
    """build(j): a callable running a fresh solve of instance j, returning
    (seconds, record), all through the package's own functions."""
    qp, bench, drs, drt = (importlib.import_module(f"{package}.{m}")
                           for m in ("qp", "bench", "drs", "drt"))
    make = qp.generate_instance if family == "paper" else qp.faces_instance

    def solve(prob, z0):
        state = drs.DrsState.initial(z0, prob.cfg)
        stop = drt.delta_stop(TOL)
        t0 = time.perf_counter()
        rec, _ = drt.drt_solve(prob, stop, state)
        return time.perf_counter() - t0, rec

    def build(j):
        z0 = bench.initial_point(n, j)
        prob = qp.drt_problem(make(n, family == "paper", j), z0, sigma=0.99,
                              theta=0.01, tol=TOL)
        return functools.partial(solve, prob, z0)

    return build


def _differences(change, ref) -> list[str]:
    # the two copies' RunRecord classes differ; compare their fields by name
    a, b = dataclasses.asdict(change), dataclasses.asdict(ref)
    names = list(a) + [k for k in b if k not in a]
    return [f"{k} change {a.get(k)!r} ref {b.get(k)!r}" for k in names
            if k != "time_s" and repr(a.get(k)) != repr(b.get(k))]


def _report(pairs: list, reps: int) -> int:
    medians = []
    for rep in range(reps):
        ratios = []
        for j, pair in enumerate(pairs):
            # index 0 is the change, 1 is REF
            order = (0, 1) if (rep + j) % 2 == 0 else (1, 0)
            best = [float("inf"), float("inf")]
            for _ in range(RUNS):
                recs = [None, None]
                for side in order:
                    seconds, recs[side] = pair[side]()
                    best[side] = min(best[side], seconds)
                diffs = _differences(*recs)
                if diffs:
                    print(f"FLAGGED solve {j}: the records differ "
                          f"({'; '.join(diffs)}); no ratio is reported")
                    return 1
            ratios.append(best[0] / best[1])
        medians.append(statistics.median(ratios))
        print(f"rep {rep + 1}: median change/REF {medians[-1]:.3f}")
    print(f"median over {reps} reps: {statistics.median(medians):.3f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref_dir = _ref_package(args.ref, tmp)
        except ValueError as exc:
            parser.error(f"REF {args.ref!r}: {exc}")
        if not os.path.isfile(os.path.join(ref_dir, "__init__.py")):
            parser.error(f"REF {args.ref!r}: {ref_dir} is not a package")
        shutil.copytree(ref_dir, os.path.join(tmp, "pkgs", REF_NAME),
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(tmp, "pkgs")]
        builders = [_builder(pkg, args.family, args.n)
                    for pkg in ("drsplit", REF_NAME)]
        pairs = []
        for j in range(args.solves):
            order = (0, 1) if j % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = builders[side](j)
            pairs.append(pair)
        print(f"ab_time: {args.family} n={args.n}, {args.solves} solves x "
              f"{args.reps} reps, fastest of {RUNS} runs per solve; REF "
              f"{args.ref}")
        return _report(pairs, args.reps)


if __name__ == "__main__":
    sys.exit(main())
