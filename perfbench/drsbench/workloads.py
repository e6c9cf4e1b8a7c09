"""The benchmark workloads and the entry points traced inside them.

A workload is a sequence of batches of (instance, algorithm) solves,
all generated from the workload seed; one pass runs one batch, in one
process, and ``solve_span`` names the span that covers each solve in it
(``run.py`` times the solves one by one).  Instance j (counted across
batches) of workload seed s uses instance seed
``(s mod SEED_RANGE) * SEED_STRIDE + j``, so any integer,
negative or large, is a valid workload seed; warm-up solves use
``WARMUP_SEED``, which lies outside every workload's range.  A run
covers a fixed number of ``batches``, at least 100 drt solves, and
repeats them for ``rounds`` rounds (see ``run.py``), so its work does
not depend on how fast the host or the code under test is.  Instance
cost is heavy-tailed: the power iteration behind ``estimate_eta`` needs
a few hundred steps on most instances and hits its 10000-step cap on
about one n=500 instance in two hundred, so every workload measures at
least a hundred instances.  Every workload also repeats its batches,
three to eight rounds as the run length allows, because the host's speed
drifts by more than the instance sets of two seeds differ.

- ``paper-n100``: the paper's table through the CLI path (``cli.main``
  with ``--out``): drt, then tos, on batches of 100 definite n=100
  instances with the delta stop.  Short solves; wall split between
  per-call overhead in the solver stack and per-instance set-up (PSD
  check, power iterations, reference oracle).
- ``spectral-n500``: ``bench.run_batch`` on definite n=500 instances,
  per batch drt on 10 of them and tos and rfdrs on the first one.  The
  power iterations and the reference oracle dominate; the solvers are a
  few percent.  drt gets the most instances because the latency metrics
  need 100 drt solves per run, and every instance costs about 0.1 s of
  power iterations whatever the algorithm.
- ``faces-certified-n100``: the library path (``qp_operators`` ->
  ``DrsConfig`` -> ``drt_solve``) on a non-degenerate family whose
  optimum lies on faces and in the interior, keeping the full history
  and inner certificate log of each solve and replaying every
  certificate after it.  The solver-heavy regime.  Its 100 instances
  are inputs built during set-up.

drsplit binds names at import, so a span must sit on every attribute a
caller looks up.  ``install`` wraps a function on each drsplit module
that binds it, and a method on its class.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drsplit import bench, cli, drs, drt, operators, qp

from .gates import Solve, replay_certificates
from .tracer import Tracer

__all__ = ["WORKLOADS", "SEED_STRIDE", "SEED_RANGE", "WARMUP_SEED",
           "install", "instance_seed_base"]

SEED_STRIDE = 10 ** 6
SEED_RANGE = 2 ** 32
WARMUP_SEED = 2 ** 62   # above SEED_RANGE * SEED_STRIDE

TOL = 1e-6
SIGMA = 0.99
THETA = 0.01

def _record_and_solution(result: bench.SingleResult):
    # the gate needs no more; the DrsState a drt result carries is dropped
    # here, as run_batch drops it, so peak memory stays the program's own
    return result.record, result.solution


# (module, attribute, span name, what to keep of each return value).  The
# light set is what every run needs: drt_solve spans give the latency
# sample, run_single results the solution blocks of the CLI/batch paths,
# and the estimator spans two of the exact counts.
LIGHT_SPANS = [
    ("bench", "run_single", "bench.run_single", _record_and_solution),
    ("drt", "drt_solve", "drt.drt_solve", None),
    ("qp", "estimate_eta", "qp.estimate_eta", None),
    ("qp", "estimate_beta_V", "qp.estimate_beta_V", None),
]
LAYER_SPANS = LIGHT_SPANS + [
    ("qp", "generate_instance", "qp.generate_instance", None),
    ("qp", "qp_operators", "qp.qp_operators", None),
    ("qp", "reference_solution", "qp.reference_solution", None),
    ("drs", "drs_iterate", "drs.drs_iterate", None),
    ("drs", "drs_ergodic", "drs.drs_ergodic", None),
    ("tseng", "tseng_solve", "tseng.tseng_solve", None),
    ("tseng", "tseng_step", "tseng.tseng_step", None),
    ("operators", "project_nullspace", "operators.project_nullspace", None),
    ("hpe", "verify_hpe_inequality", "hpe.verify_hpe_inequality", None),
    ("baselines", "run_baseline", "baselines.run_baseline", None),
    ("bench", "run_batch", "bench.run_batch", None),
    ("bench", "write_records", "bench.write_records", None),
]
LAYER_METHODS = [
    (operators.BoxNormalCone, "resolvent", "operators.box_resolvent"),
    (operators.NullspaceNormalCone, "resolvent",
     "operators.nullspace_resolvent"),
]


def _drsplit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "drsplit" or name.startswith("drsplit.")]


def install(tracer: Tracer, full: bool) -> None:
    """Patch the light spans, or every layer span when full is True."""
    modules = _drsplit_modules()
    for mod, attr, name, keep in (LAYER_SPANS if full else LIGHT_SPANS):
        fn = getattr(sys.modules[f"drsplit.{mod}"], attr)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is fn:
                    tracer.patch(owner, key, name, keep)
    if full:
        for cls, attr, name in LAYER_METHODS:
            tracer.patch(cls, attr, name)


def instance_seed_base(seed: int) -> int:
    return (seed % SEED_RANGE) * SEED_STRIDE


def _solves_from_run_single(tracer: Tracer, first: int) -> list[Solve]:
    out = [Solve(rec.algo, first + rec.instance, rec, solution)
           for rec, solution in tracer.kept["bench.run_single"]]
    # run_batch turns a raised solve into an error record; count it here
    out += [Solve("raised", -1, None, None)] * tracer.raised["bench.run_single"]
    return out


def _count_fields(r):
    return (r.instance, r.algo, r.n, r.iters, r.extragrad, r.null, r.inner,
            r.f2_evals)


@dataclass
class PaperN100:
    name = "paper-n100"
    n = 100
    batch = 100
    rounds = 8
    batches = 2
    trace_batches = 1
    algos = ("drt", "tos")
    solve_span = "bench.run_single"
    out_dir: Path = field(default_factory=Path)
    base: int = 0

    def _cli(self, algo: str, seed: int, instances: int, tag: str) -> None:
        with redirect_stdout(io.StringIO()):
            cli.main(["--n", str(self.n), "--instances", str(instances),
                      "--algo", algo, "--stop", "delta",
                      "--seed", str(seed), "--out", str(self._csv(algo, tag))])

    def _csv(self, algo: str, tag: str) -> Path:
        return self.out_dir / f"{self.name}-{tag}-{algo}.csv"

    def setup(self) -> None:
        for algo in self.algos:
            self._cli(algo, WARMUP_SEED, 1, "warmup")

    def run_pass(self, tracer: Tracer, k: int) -> list[Solve]:
        for algo in self.algos:
            self._cli(algo, self.base + k * self.batch, self.batch, "pass")
        return _solves_from_run_single(tracer, k * self.batch)

    def instance(self, j: int) -> qp.QpInstance:
        return qp.generate_instance(self.n, True, self.base + j)

    def output_problems(self, k: int, solves: list[Solve]) -> list[str]:
        """The CSVs --out wrote must hold the records the solves returned."""
        problems = []
        for algo in self.algos:
            path = self._csv(algo, "pass")
            want = sorted(_count_fields(s.record) for s in solves
                          if s.algo == algo)
            got = sorted(_count_fields(r) for r in bench.read_records(path))
            if got != want:
                problems.append(f"batch {k}: {path.name} disagrees with the "
                                "solves")
        return problems


@dataclass
class SpectralN500:
    name = "spectral-n500"
    n = 500
    batch = 10
    rounds = 3
    batches = 10
    trace_batches = 2
    algos = {"drt": 10, "tos": 1, "rfdrs": 1}   # instances per batch
    solve_span = "bench.run_single"
    out_dir: Path = field(default_factory=Path)
    base: int = 0

    def setup(self) -> None:
        for algo in self.algos:
            bench.run_batch(bench.BenchSpec(n=self.n, instances=1, algo=algo,
                                            seed=WARMUP_SEED))

    def run_pass(self, tracer: Tracer, k: int) -> list[Solve]:
        for algo, count in self.algos.items():
            bench.run_batch(bench.BenchSpec(
                n=self.n, instances=count, algo=algo,
                seed=self.base + k * self.batch))
        return _solves_from_run_single(tracer, k * self.batch)

    def instance(self, j: int) -> qp.QpInstance:
        return qp.generate_instance(self.n, True, self.base + j)

    def output_problems(self, k: int, solves: list[Solve]) -> list[str]:
        return []


def faces_instance(n: int, seed: int) -> qp.QpInstance:
    """Semidefinite Q and K of generate_instance, sign-mixed e, box [-5, 5].

    After the OSQP random box-QP generators (Stellato et al., arXiv
    1711.08013): with e uniform in [-10, 10] the optimum has about a
    sixth of its coordinates strictly inside the box and the rest on its
    faces.  A wider range of e shortens the solves, a narrower one
    lengthens them and fattens the tail of solve lengths, which the
    peak-memory metric follows through the certificate log.
    """
    base = qp.generate_instance(n, False, seed)
    rng = np.random.default_rng([7, seed])
    return qp.QpInstance(Q=base.Q, e=rng.uniform(-10.0, 10.0, n), K=base.K,
                         lo=np.full(n, -5.0), hi=np.full(n, 5.0),
                         definite=False, seed=seed)


def faces_solve(inst: qp.QpInstance, z0: np.ndarray, j: int) -> Solve:
    """Library-path drt solve with full history, then certificate replay."""
    ops = qp.qp_operators(inst)
    cfg = drs.DrsConfig(gamma=2.0 * ops.eta * SIGMA ** 2, sigma=SIGMA,
                        theta=THETA, tau0=qp.tau0_default(inst, z0),
                        rho_tol=TOL, eps_tol=TOL)
    prob = drt.DrtProblem(A=ops.A, C=ops.C, F1=ops.F1, F2=ops.F2, cfg=cfg)
    state = drs.DrsState.initial(z0, cfg)
    certs: list = []
    try:
        rec, quad = drt.drt_solve(prob, drt.delta_stop(TOL), state=state,
                                  inner_cert_log=certs)
    except (RuntimeError, np.linalg.LinAlgError):
        return Solve("drt", j, None, None)
    try:
        certified = replay_certificates(state, cfg, certs)
    except RuntimeError:
        certified = False
    rec.instance = j
    return Solve("drt", j, rec, quad.x, certified)


@dataclass
class FacesCertifiedN100:
    name = "faces-certified-n100"
    n = 100
    batch = 10
    rounds = 4
    batches = 10
    trace_batches = 3
    solve_span = "workload.faces_solve"
    out_dir: Path = field(default_factory=Path)
    base: int = 0
    inputs: list = field(default_factory=list)

    def setup(self) -> None:
        warm = faces_instance(self.n, WARMUP_SEED)
        faces_solve(warm, bench.initial_point(self.n, WARMUP_SEED), -1)
        self.inputs = [(faces_instance(self.n, self.base + j),
                        bench.initial_point(self.n, self.base + j))
                       for j in range(self.batch * self.batches)]

    def run_pass(self, tracer: Tracer, k: int) -> list[Solve]:
        solve = tracer.wrap(self.solve_span, faces_solve)
        first = k * self.batch
        return [solve(*self.inputs[j], j)
                for j in range(first, first + self.batch)]

    def instance(self, j: int) -> qp.QpInstance:
        return self.inputs[j][0]

    def output_problems(self, k: int, solves: list[Solve]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PaperN100, SpectralN500, FacesCertifiedN100)}
