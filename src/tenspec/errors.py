"""Exception types shared by all tenspec modules."""


class TenspecError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatch(TenspecError):
    """Operand shapes (or paired extents) are incompatible."""


class InvalidAxis(TenspecError):
    """A mode position is out of range, repeated, or unpaired."""


class InvalidSplit(TenspecError):
    """An unfold split point does not partition the modes."""


class InvalidKeep(TenspecError):
    """A truncation count is outside [0, component count]."""


class GroupingMismatch(TenspecError):
    """A mode grouping does not partition the tensor order."""


class NotSymmetric(TenspecError):
    """A matrix is not square, finite and symmetric within tolerance."""

    def __init__(self, message, asymmetry=None):
        super().__init__(message)
        self.asymmetry = asymmetry  # max|a - a^T| / max|a|, when that is the fault


class NotSelfAdjoint(TenspecError):
    """A two-group tensor operator is not self-adjoint within tolerance."""


class NotNND(TenspecError):
    """A matrix or operator is not non-negative definite."""


class NoConvergence(TenspecError):
    """An iteration hit its sweep limit before reaching tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TooLarge(TenspecError):
    """An input has more values, or needs a larger eigenproblem, than supported."""


class ParseError(TenspecError):
    """A tensor or manifest file is malformed, or a path to read or write
    is not a regular file."""
