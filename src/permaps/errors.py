"""Exception hierarchy shared by every module in the package."""

__all__ = [
    "PermapsError",
    "ParseError",
    "NotABijection",
    "SizeMismatch",
    "EmptyInput",
    "NotTransitive",
    "Decomposable",
    "SizeTooSmall",
    "NotFpf",
    "InvalidPath",
    "InvalidLabeling",
    "PlacementOutOfRange",
    "InternalMismatch",
    "LimitExceeded",
]


class PermapsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PermapsError):
    """Input text does not match the expected grammar."""


class NotABijection(PermapsError):
    """A value sequence is not a bijection of {1..n}."""


class SizeMismatch(PermapsError):
    """Two permutations that must act on the same set do not."""


class EmptyInput(PermapsError):
    """An operation that needs at least one item received none."""


class NotTransitive(PermapsError):
    """The permutation pair does not act transitively on {1..n}."""


class Decomposable(PermapsError):
    """An indecomposable permutation was required."""


class SizeTooSmall(PermapsError):
    """The permutation is below the minimum size for this operation."""


class NotFpf(PermapsError):
    """A fixed-point-free involution was required."""


class InvalidPath(PermapsError):
    """The word is not a Dyck path."""


class InvalidLabeling(PermapsError):
    """The labeled word violates its labeling scheme."""


class PlacementOutOfRange(InvalidLabeling):
    """A label addresses a free slot that does not exist.

    No function raises it: ``delta_inverse`` refuses a label above the
    height in front of it, which equals the free-slot count, with
    InvalidLabeling.  Kept as public API.
    """


class InternalMismatch(PermapsError):
    """Two independent evaluations of the same quantity disagree."""


class LimitExceeded(PermapsError):
    """Requested size exceeds the configured exhaustive-search limit."""
