"""Exception hierarchy shared by every stage of the compression pipeline."""

from __future__ import annotations


class CompressionError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CompressionError):
    """A container file or manifest could not be parsed."""


class DimensionError(CompressionError):
    """Matrix or model dimensions do not line up."""


class InvalidRankError(CompressionError):
    """Requested truncation rank is outside [1, number of singular values]."""


class InfeasibleBudgetError(CompressionError):
    """The compression ratio leaves no room for even a rank-1 factorization."""

    def __init__(self, rows: int, cols: int, layer_ratio: float):
        self.rows = rows
        self.cols = cols
        self.layer_ratio = layer_ratio
        super().__init__(
            f"rank budget infeasible: ratio {layer_ratio!r} on a "
            f"{rows}x{cols} matrix yields target rank < 1"
        )


class InfeasiblePlanError(CompressionError):
    """No tail-layer candidate satisfies the overall-ratio constraint."""


class NumericalError(CompressionError):
    """A dense decomposition failed to converge or lost invertibility."""


class SingularWhiteningError(NumericalError):
    """The activation Gram matrix overflows or is not positive definite.

    Raised when Cholesky whitening fails; a larger ridge usually fixes it,
    unless the activations are all zero. Also raised when the activations
    are so large that their Gram matrix overflows float64.
    """
