"""Exception and warning types shared across the package."""


class SiegelflowError(Exception):
    """Base class for every error raised by this package."""


class DomainViolation(SiegelflowError, ValueError):
    """A point or trajectory step fails its domain's defining inequality."""


class FieldEvaluationError(SiegelflowError, ArithmeticError):
    """A vector field produced a non-finite value (pole, branch point, ...)."""


class ExpressionSyntaxError(SiegelflowError, ValueError):
    """Malformed field expression.  Carries the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier is not a variable, the literal i, or a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class ArityMismatchError(SiegelflowError, ValueError):
    """Component count or vector length does not match the ambient dimension."""


class StepSizeUnderflow(SiegelflowError, RuntimeError):
    """Adaptive integrator rejected too many consecutive steps."""


class CoverageGap(SiegelflowError, ValueError):
    """Piecewise driving field does not cover the requested time interval."""


class HalfPlaneConditionWarning(UserWarning):
    """Sampled values of a Herglotz factor left the closed right half-plane."""
