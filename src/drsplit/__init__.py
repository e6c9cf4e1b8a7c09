"""Inexact Douglas-Rachford splitting with certified inner solves.

The package solves monotone inclusions 0 in A(z) + C(z) + F1(z) + F2(z)
by an outer Douglas-Rachford loop whose resolvent of B = C + F1 + F2 is
computed inexactly by a Tseng forward-backward iteration, with every
accepted step carrying a verifiable relative-error certificate.  A
benchmark harness reproduces the box/equality-constrained QP experiments
(see the drsplit-bench console script).
"""

from .drs import (DrsConfig, DrsState, Quadruple, check_termination,
                  drs_ergodic, drs_iterate, embed_hpe, exact_bsolver,
                  null_step_bounds)
from .drt import (DrtProblem, RunRecord, delta_stop, drt_bsolver, drt_solve,
                  residual_stop, tolerance_stop)
from .errors import (ContractViolation, InvariantViolation,
                     IterationBudgetExceeded, OracleFailure, ParseError,
                     StateError)
from .hpe import (HpeStepCertificate, RateEnvelope, ergodic_bound,
                  pointwise_bound, strong_rate, verify_hpe_inequality)
from .operators import (AffineCocoerciveMap, BoxNormalCone, CocoerciveMap,
                        EnlargementTriple, LipschitzMap, NullspaceNormalCone,
                        SplittableOperator, cocoercive_enlargement,
                        project_nullspace)
from .qp import (QpInstance, QpOperators, drt_problem, estimate_beta_V,
                 estimate_eta, faces_instance, generate_instance,
                 qp_operators, reference_solution, tau0_default)
from .tseng import TsengOutput, TsengProblem, gamma_max, tseng_solve, tseng_step

__version__ = "0.1.0"

__all__ = [
    "AffineCocoerciveMap", "BoxNormalCone", "CocoerciveMap", "ContractViolation",
    "DrsConfig", "DrsState", "DrtProblem", "EnlargementTriple",
    "HpeStepCertificate",
    "InvariantViolation", "IterationBudgetExceeded", "LipschitzMap",
    "NullspaceNormalCone", "OracleFailure", "ParseError", "QpInstance",
    "QpOperators", "Quadruple", "RateEnvelope", "RunRecord",
    "SplittableOperator", "StateError", "TsengOutput", "TsengProblem",
    "check_termination", "cocoercive_enlargement", "delta_stop",
    "drs_ergodic", "drs_iterate", "drt_bsolver", "drt_problem", "drt_solve",
    "embed_hpe", "ergodic_bound", "estimate_beta_V", "estimate_eta",
    "exact_bsolver", "faces_instance", "gamma_max", "generate_instance",
    "null_step_bounds",
    "pointwise_bound", "project_nullspace", "qp_operators",
    "reference_solution", "residual_stop", "strong_rate",
    "tau0_default", "tolerance_stop", "tseng_solve",
    "tseng_step", "verify_hpe_inequality",
]
