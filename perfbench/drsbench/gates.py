"""Correctness gates applied to every solve a workload attempts.

A solve passes when its solution block satisfies the KKT conditions of
its instance to ``KKT_TOL`` (``qp.kkt_check``) and, where the workload
replays certificates, when every replayed certificate holds.  The
``abs_err`` column of the records is not used: it is measured on the
governing iterate z, not on the solution block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from drsplit import drs, hpe, qp
from drsplit.drt import RunRecord

__all__ = ["KKT_TOL", "Solve", "Gate", "replay_certificates"]

# Solves stop at ||z_k - z_{k-1}|| <= 1e-6; the non-degenerate family
# then meets the KKT test at 1e-6 but not at 1e-7, so 1e-5 leaves a
# factor of ten while still failing any solution block that is off by a
# visible amount.
KKT_TOL = 1e-5


@dataclass
class Solve:
    """One (instance, algorithm) solve as the gate sees it.

    record and solution are None when the solve raised.  certified is
    False when a replayed certificate failed or the replay raised.
    """

    algo: str
    instance: int
    record: RunRecord | None
    solution: np.ndarray | None
    certified: bool = True


class Gate:
    """Counts attempted and failed solves over a run.

    instance_for(i) rebuilds instance i for the KKT check.
    """

    def __init__(self, instance_for: Callable[[int], qp.QpInstance]):
        self.instance_for = instance_for
        self.attempted = 0
        self.failed = 0

    def judge(self, solves: list[Solve]) -> int:
        """Add the solves to the tally; returns how many of them failed."""
        failed = 0
        checked: dict[int, list[np.ndarray]] = {}
        for s in solves:
            if s.solution is None or not s.certified:
                failed += 1
            else:
                checked.setdefault(s.instance, []).append(s.solution)
        for i, solutions in checked.items():   # one rebuild per instance
            inst = self.instance_for(i)
            failed += sum(not (np.all(np.isfinite(x))
                               and qp.kkt_check(inst, x, KKT_TOL))
                          for x in solutions)
        self.attempted += len(solves)
        self.failed += failed
        return failed


def replay_certificates(state: drs.DrsState, cfg: drs.DrsConfig,
                        inner_certs: list) -> bool:
    """Re-verify every inner and outer certificate, then read the ergodic quadruple.

    Outer certificates are rebuilt from the extragradient history as in
    ``drs.embed_hpe``.  Every certificate is checked, failed or not, so the
    call count does not depend on where a failure sits.
    """
    bad = 0
    for cert in inner_certs:
        bad += not hpe.verify_hpe_inequality(cert)
    g = cfg.gamma
    for j in range(state.n_extragradient):
        cert = hpe.HpeStepCertificate(
            z_prev=state.hist_z_prev[j],
            z_tilde=state.hist_y[j] + g * state.hist_b[j],
            v=g * (state.hist_a[j] + state.hist_b[j]),
            eps=g * state.hist_eps_b[j],
            lam=1.0,
            sigma=cfg.sigma,
        )
        bad += not hpe.verify_hpe_inequality(cert)
    drs.drs_ergodic(state)
    return bad == 0
