"""Exception types and the integer argument check shared across the package."""

import numpy as np


def is_positive_integer(value) -> bool:
    """True for a Python or NumPy integer of at least one; bools are rejected."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class EvaluationError(ValueError):
    """A user-supplied field produced non-finite values."""


class SolverFailure(RuntimeError):
    """A solve failed; raised as such when a linear solve misses its residual contract.

    ``iteration`` is the fixed-point iteration that failed.  ``partial`` is
    None, unless a driver set it on the way out: then it holds the
    ``EOCTable`` or ``AdaptiveHistory`` of the levels or cycles that
    finished before the failure.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
        self.partial = None


class DivergenceError(SolverFailure):
    """The fixed-point iteration produced growing or non-finite iterates."""
