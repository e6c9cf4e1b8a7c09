"""Benchmark harness: seeded instance batches, summaries, CSV and trace IO.

A batch runs one solver (drt, rfdrs, or tos) over `instances` seeded QP
instances of dimension n, instance i drawing its data from seed
master+i, and collects one RunRecord per instance.  Solver failures mark
the record and the batch continues.  Summaries report min/max/mean per
numeric column as aligned text and as CSV.

Every output file is opened through one helper.  An existing regular
file that the caller owns and may write is replaced by a new file rather
than truncated in place: the new file keeps the old file's permission
bits, narrowed by the umask, and a hard link to the old file keeps the
old content.  Symlinks, devices, FIFOs and write-protected or foreign
files are opened as open(path, "w") opens them: written through,
truncated in place, or refused.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from dataclasses import dataclass, fields

import numpy as np

from .baselines import run_baseline
from .drs import EXTRAGRADIENT, DrsConfig, DrsState, outer_certificates
from .drt import RunRecord, delta_stop, drt_solve, residual_stop
from .errors import InvariantViolation, OracleFailure, ParseError
from .operators import _integral
from .qp import drt_problem, generate_instance, reference_solution

__all__ = [
    "CSV_COLUMNS",
    "BenchSpec",
    "initial_point",
    "run_single",
    "run_batch",
    "summarize",
    "format_summary",
    "write_summary_csv",
    "write_records",
    "read_records",
    "write_trace",
    "summary_csv_path",
]

CSV_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name != "error")
_NUMERIC_COLUMNS = CSV_COLUMNS[3:]

_ALGOS = ("drt", "rfdrs", "tos")
_STOPS = ("delta", "residual")


@dataclass(frozen=True)
class BenchSpec:
    n: int
    instances: int = 100
    definite: bool = True
    algo: str = "drt"
    stop: str = "delta"
    tol: float = 1e-6
    sigma: float = 0.99
    theta: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # a NaN passes the range tests below, and a NaN or a fraction
        # would reach range() and the seeds as a bare TypeError
        for name in ("n", "instances", "seed"):
            if not _integral(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.algo not in _ALGOS:
            raise ValueError(f"algo must be one of {_ALGOS}")
        if self.stop not in _STOPS:
            raise ValueError(f"stop must be one of {_STOPS}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def initial_point(n: int, seed: int) -> np.ndarray:
    """Gaussian direction scaled to the box diagonal, ||z0|| = 10*sqrt(n).

    The paper family has its unique solution at the origin, so a start
    at 0 would end every run in one step; a deterministic random
    direction at box-diagonal distance makes the iteration counts
    informative.  The stream is decorrelated from the instance draw.
    """
    if not _integral(n) or n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng([1, seed])
    z = rng.standard_normal(n)
    nrm = float(np.linalg.norm(z))
    if nrm < 1e-8:  # essentially impossible; keep the start well scaled
        z = np.ones(n)
        nrm = float(np.sqrt(n))
    return (10.0 * np.sqrt(n) / nrm) * z


@dataclass
class SingleResult:
    record: RunRecord
    solution: np.ndarray | None
    state: DrsState | None = None   # drt only
    cfg: DrsConfig | None = None    # drt only


def run_single(spec: BenchSpec, i: int) -> SingleResult:
    """Run instance i of the batch; raises on solver failure.

    This is where every record gets its instance and abs_err, the
    distance of the solution block (quad.x for drt, the baseline's
    solution otherwise) to the reference solution.
    """
    seed = spec.seed + i
    inst = generate_instance(spec.n, spec.definite, seed)
    z0 = initial_point(spec.n, seed)

    try:
        z_star = reference_solution(inst)
    except OracleFailure:
        z_star = None   # abs_err stays nan, record otherwise valid

    if spec.algo == "drt":
        prob = drt_problem(inst, z0, sigma=spec.sigma, theta=spec.theta,
                           tol=spec.tol)
        stop = (delta_stop if spec.stop == "delta" else residual_stop)(spec.tol)
        state = DrsState.initial(z0, prob.cfg)
        rec, quad = drt_solve(prob, stop, state)
        result = SingleResult(rec, quad.x, state=state, cfg=prob.cfg)
    else:
        rec, sol = run_baseline(inst, spec.algo, spec.tol, z0=z0)
        result = SingleResult(rec, sol)
    rec.instance = i
    if z_star is not None:
        rec.abs_err = float(np.linalg.norm(result.solution - z_star))
    return result


def _verify_trace_equivalence(state: DrsState, cfg: DrsConfig) -> None:
    # on every extragradient step the three residual readings agree:
    # ||z_k - z_{k-1}|| = ||v|| = the trace's ||x - y|| to 1e-12; null
    # steps do not move z, so z_k is the next step's start or the final state.z
    certs = outer_certificates(state, cfg)
    z_after = [c.z_prev for c in certs[1:]] + [state.z]
    steps = [t for t in state.trace if t.step == EXTRAGRADIENT]
    for idx, (cert, za, t) in enumerate(zip(certs, z_after, steps)):
        shift = float(np.linalg.norm(za - cert.z_prev))
        vnorm = float(np.linalg.norm(cert.v))
        tol = 1e-12 * (1.0 + t.residual)
        if abs(shift - vnorm) > tol or abs(shift - t.residual) > tol:
            raise InvariantViolation(
                f"extragradient step {idx + 1}: residual readings diverge "
                f"({shift} vs {vnorm} vs {t.residual})")


def run_batch(spec: BenchSpec, trace_path=None) -> list[RunRecord]:
    """All instances in order; per-instance failures marked, never raised.

    trace_path (drt only) writes one block per instance with the
    per-iteration step log, after checking on every extragradient step
    that the residual it writes agrees with ||z_k - z_{k-1}|| and ||v||.
    """
    if trace_path is not None and spec.algo != "drt":
        raise ValueError("trace output requires the drt solver")
    records: list[RunRecord] = []
    blocks = []
    for i in range(spec.instances):
        try:
            result = run_single(spec, i)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            records.append(RunRecord(instance=i, algo=spec.algo, n=spec.n,
                                     time_s=float("nan"),
                                     error=f"{type(exc).__name__}: {exc}"))
            continue
        records.append(result.record)
        if trace_path is not None and result.state is not None:
            _verify_trace_equivalence(result.state, result.cfg)
            blocks.append((i, result.state.trace))
    if trace_path is not None:
        write_trace(trace_path, blocks)
    return records


def _create(path, newline=None):
    """Open path for writing, as a new file where it may replace one.

    Truncating a file that was itself written by truncation makes ext4
    (auto_da_alloc) flush it, and the next truncating open blocks for
    tens of milliseconds, a minute later as well as at once; unlinking
    the file and creating a new one does not.  Renaming a temporary file
    over it triggers the same flush.  Only a regular file that the caller
    owns and may write (on POSIX) is unlinked, and the new file is created
    with its permission bits, so the umask can narrow them but never
    widen them.  Anything else (a symlink, a device, a FIFO, a
    write-protected or foreign file, a missing path) is opened as is, and
    so is a file whose directory forbids the unlink.
    """
    try:
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_mode & stat.S_IWUSR
                and hasattr(os, "geteuid") and st.st_uid == os.geteuid()):
            os.unlink(path)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         st.st_mode & 0o777)
            return open(fd, "w", newline=newline)
    except (FileNotFoundError, PermissionError):
        pass
    return open(path, "w", newline=newline)


def write_trace(path, blocks) -> None:
    """Trace file: `# instance <i>` separators, then k,type,tau,residual,eps_b lines."""
    with _create(path) as fh:
        for i, trace in blocks:
            fh.write(f"# instance {i}\n")
            for t in trace:
                fh.write(f"{t.k},{t.step},{t.tau!r},{t.residual!r},"
                         f"{t.eps_b!r}\n")


def summarize(records) -> dict[str, tuple[float, float, float]]:
    """Per-column (min, max, mean) over clean records, nan cells skipped.

    Error-marked records are excluded entirely; a column with no finite
    values (e.g. abs_err when every oracle failed) reports nans.
    """
    if not records:
        raise ValueError("no records to summarize")
    good = [r for r in records if r.error is None]
    stats: dict[str, tuple[float, float, float]] = {}
    for col in _NUMERIC_COLUMNS:
        vals = [float(getattr(r, col)) for r in good]
        vals = [v for v in vals if np.isfinite(v)]
        if vals:
            stats[col] = (min(vals), max(vals), sum(vals) / len(vals))
        else:
            stats[col] = (float("nan"),) * 3
    return stats


def format_summary(stats, spec: BenchSpec | None = None,
                   errors: int = 0) -> str:
    lines = []
    if spec is not None:
        kind = "definite" if spec.definite else "semidefinite"
        # the baselines run at unit relaxation, where the stop rules agree
        stop = f" stop={spec.stop}" if spec.algo == "drt" else ""
        head = (f"algo={spec.algo} n={spec.n} instances={spec.instances} "
                f"{kind}{stop} tol={spec.tol:g}")
        if errors:
            head += f" ({errors} failed)"
        lines.append(head)
    lines.append(f"{'column':<10}{'min':>14}{'max':>14}{'mean':>14}")
    for col, (lo, hi, mean) in stats.items():
        lines.append(f"{col:<10}{lo:>14.6g}{hi:>14.6g}{mean:>14.6g}")
    return "\n".join(lines)


def write_summary_csv(stats, path) -> None:
    with _create(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("column", "min", "max", "mean"))
        for col, (lo, hi, mean) in stats.items():
            w.writerow((col, repr(lo), repr(hi), repr(mean)))


def write_records(records, path) -> None:
    """Records CSV; repr floats round-trip bit-exactly, error rows go nan."""
    with _create(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            if r.error is not None:
                w.writerow([r.instance, r.algo, r.n] + ["nan"] * 8)
                continue
            w.writerow([r.instance, r.algo, r.n, r.iters, r.extragrad,
                        r.null, r.inner, r.f2_evals, repr(float(r.time_s)),
                        repr(float(r.residual)), repr(float(r.abs_err))])


def _count(value: float) -> int:
    # is_integer() is False for inf and nan as well as for fractions
    if not value.is_integer():
        raise ValueError(f"count cell {value!r} is not an integer")
    return int(value)


def read_records(path) -> list[RunRecord]:
    """Inverse of write_records; a nan iters cell marks an error row."""
    records = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != list(CSV_COLUMNS):
            raise ParseError("bad or missing header row", 1)
        for lineno, row in enumerate(rd, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(
                    f"expected {len(CSV_COLUMNS)} cells, found {len(row)}",
                    lineno)
            try:
                instance, n = int(row[0]), int(row[2])
                nums = [float(c) for c in row[3:]]
                # a nan iters cell marks an error row
                counts = (None if math.isnan(nums[0])
                          else [_count(v) for v in nums[:5]])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if counts is None:
                records.append(RunRecord(instance=instance, algo=row[1], n=n,
                                         time_s=float("nan"),
                                         error="error row"))
                continue
            # CSV_COLUMNS are RunRecord's fields in order
            records.append(RunRecord(instance, row[1], n, *counts, *nums[5:]))
    return records


def summary_csv_path(out_path) -> str:
    """Sibling path for the summary CSV next to a records CSV."""
    stem, _ = os.path.splitext(str(out_path))
    return stem + ".summary.csv"
