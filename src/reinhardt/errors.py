"""Exception types, and the index and number checks, shared across the package."""

import math
import numbers


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class NumericalFailureError(RuntimeError):
    """A numerical routine could not meet its accuracy contract.

    Carries the best available estimate and the achieved error so callers
    can decide whether to retry, for instance with a looser rel_tol.
    """

    def __init__(self, message, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


def check_index(value, message: str, minimum=-math.inf, maximum=math.inf, **fields) -> int:
    """int(value) for an integral number in [minimum, maximum].  Anything
    else, a fraction, NaN, inf, a boolean, a non-number or a value out of
    range, raises InvalidInputError(message.format(value, **fields))."""
    try:
        whole = value == int(value) and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and minimum <= value <= maximum):
        raise InvalidInputError(message.format(value, **fields))
    return int(value)


def is_finite_number(value) -> bool:
    """Whether value is a finite real number: an int, a float or a numpy
    scalar, never a boolean, nor an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
