"""Exception types shared across the package."""


class ContractViolation(RuntimeError):
    """A numerical contract between modules was broken.

    Raised when an inner-solver output fails its stated inequality or a
    quadruple no longer satisfies the identity it was constructed with.
    """


class InvariantViolation(RuntimeError):
    """An internal mathematical invariant failed beyond round-off slack."""


class IterationBudgetExceeded(RuntimeError):
    """An iteration cap was hit before the termination test fired."""


class OracleFailure(RuntimeError):
    """A reference solve failed to reach its target accuracy."""


class StateError(RuntimeError):
    """Operation requested in a state that cannot serve it."""


class ParseError(ValueError):
    """Malformed run-records CSV; lineno names the offending line."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
