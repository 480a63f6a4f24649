"""Exception types shared across the package.

Two top-level families matter to callers (and to the CLI exit codes):
ValidationError for bad inputs/configs, NumericalError for runtime numerical
failures (singular matrices, infeasible impacts, non-convergent searches,
gait breakdown).
"""

__all__ = [
    "StrideLabError",
    "ValidationError",
    "NumericalError",
    "SingularMatrixError",
    "InfeasibleImpactError",
    "GaitFailureError",
    "FixedPointError",
]


class StrideLabError(Exception):
    """Base class for all package errors."""


class ValidationError(StrideLabError):
    """Raised when an input, parameter set, or config is malformed."""


class NumericalError(StrideLabError):
    """Raised when a numerical procedure fails at runtime."""


class SingularMatrixError(NumericalError):
    """A linear solve hit a (near-)singular matrix.

    Attributes:
        cond: condition-number estimate of the offending matrix.
    """

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class InfeasibleImpactError(NumericalError):
    """Impact impulse violated the unilateral contact condition.

    Attributes:
        impulse: the (x, z) contact impulse that was computed.
    """

    def __init__(self, message: str, impulse=None):
        super().__init__(message)
        self.impulse = impulse


class GaitFailureError(NumericalError):
    """The hybrid simulation failed to produce the expected impact."""


class FixedPointError(NumericalError):
    """Fixed-point search did not converge.

    Attributes:
        residual: norm of the final iterate's residual ||F(x) - x||.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual
