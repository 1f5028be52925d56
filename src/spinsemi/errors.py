"""Exception types shared across the package."""


class SpinsemiError(Exception):
    """Base class for all package errors."""


class NotHermitian(SpinsemiError):
    """Matrix expected to be Hermitian is not (within tolerance)."""


class NoConvergence(SpinsemiError):
    """Eigensolver failed to converge."""


class StepSizeUnderflow(SpinsemiError):
    """Adaptive integrator drove the step below machine resolution."""


class FieldEvaluationError(SpinsemiError):
    """ODE right-hand side returned a non-finite value."""


class ScaleOverflow(SpinsemiError):
    """Coherent-state amplitudes exceed double-precision range."""


class DimensionMismatch(SpinsemiError):
    """Vector/matrix shape inconsistent with the declared spin system."""


class ChartSingularity(SpinsemiError):
    """Phase-space point too close to the excluded pole of the chart."""


class CausticEncountered(SpinsemiError):
    """Focal point: the prefactor determinant vanished along the trajectory."""


class LogBranch(SpinsemiError):
    """Logarithm argument crossed the branch cut; result would be ambiguous."""


class ValidityBreakdown(SpinsemiError):
    """Semiclassical purity left its domain of validity (short-time regime)."""


class ConfigError(SpinsemiError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed configuration document."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ConfigError):
    """Well-formed document with invalid or unknown content."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
