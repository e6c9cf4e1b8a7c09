"""Inexact Douglas-Rachford splitting with certified inner solves.

The package solves monotone inclusions 0 in A(z) + C(z) + F1(z) + F2(z)
by an outer Douglas-Rachford loop whose resolvent of B = C + F1 + F2 is
computed inexactly by a Tseng forward-backward iteration, with every
accepted step carrying a verifiable relative-error certificate.  A
benchmark harness reproduces the box/equality-constrained QP experiments
(see the drsplit-bench console script).
"""

from .drs import (DrsConfig, DrsState, Quadruple, check_termination,
                  drs_ergodic, drs_iterate, envelope, null_step_bounds,
                  outer_certificates)
from .drt import (DrtProblem, RunRecord, delta_stop, drt_solve, residual_stop,
                  tolerance_stop)
from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded, OracleFailure, ParseError,
                     StateError)
from .hpe import (HpeStepCertificate, ergodic_bound, pointwise_bound,
                  verify_hpe_inequality)
from .operators import (AffineCocoerciveMap, BoxNormalCone, CocoerciveMap,
                        LipschitzMap, NullspaceNormalCone, SplittableOperator)
from .qp import (QpInstance, drt_problem, estimate_beta_V, faces_instance,
                 generate_instance, nearest_zero, qp_operators,
                 reference_solution, tau0_default)
from .tseng import (CertBlock, TsengProblem, gamma_max, tseng_solve,
                    tseng_step)

__version__ = "0.1.0"

__all__ = [
    "AffineCocoerciveMap", "BoxNormalCone", "CertBlock", "CocoerciveMap",
    "ContractViolation", "DrsConfig", "DrsState", "DrtProblem",
    "HpeStepCertificate", "InvariantViolation", "IterationBudgetExceeded",
    "LipschitzMap", "NullspaceNormalCone", "OracleFailure", "ParseError",
    "QpInstance", "Quadruple", "RunRecord",
    "SplittableOperator", "StateError", "TsengProblem",
    "check_termination", "delta_stop", "drs_ergodic", "drs_iterate",
    "drt_problem", "drt_solve", "envelope", "ergodic_bound",
    "estimate_beta_V", "faces_instance", "gamma_max", "generate_instance",
    "nearest_zero", "null_step_bounds", "outer_certificates",
    "pointwise_bound",
    "qp_operators", "reference_solution", "residual_stop",
    "tau0_default", "tolerance_stop", "tseng_solve", "tseng_step",
    "verify_hpe_inequality",
]
