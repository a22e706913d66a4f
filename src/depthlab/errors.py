"""Semantic exceptions shared across depthlab modules."""


class DepthLabError(Exception):
    """Base class for all depthlab errors."""


class InputError(DepthLabError, ValueError):
    """Input outside a routine's domain; the CLI's exit 2 (config error)."""


class LawUnavailableError(DepthLabError):
    """A coordinate law was requested beyond the model's generable range."""


class DirectionRangeError(DepthLabError):
    """A direction's support exceeds the width of the sample it is applied to."""


class HeterogeneousModelError(DepthLabError):
    """An operation requires all coordinate laws to share a family/parameter."""


class MomentUnavailableError(DepthLabError):
    """A required moment (variance, fourth moment) does not exist for a law."""


class UndecidedTailError(DepthLabError):
    """A tail series' or a Kakutani product's convergence is not certified."""


class QuadratureError(DepthLabError):
    """Adaptive quadrature failed to converge; carries the partial value."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class GridCoverageError(DepthLabError):
    """A grid function does not resolve required evaluation points."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class BudgetExceededError(InputError):
    """Subset enumeration would exceed the configured budget: the run's
    shape and budget disagree before any draw, so the CLI exits 2."""
