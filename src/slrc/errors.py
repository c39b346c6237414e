"""Exception types shared across the package, and the check of a count."""

import numbers


class SlrcError(Exception):
    """Base class for all package errors."""


class FieldError(SlrcError, ValueError):
    """Bad field specification or mixed-field operands."""


class ParameterError(SlrcError, ValueError):
    """Construction parameters violate an admissibility constraint."""


class ConstructionError(SlrcError, RuntimeError):
    """A candidate matrix failed its required verification."""


class DesignError(SlrcError, ValueError):
    """An incidence structure violates a design invariant."""


class InfeasibleError(SlrcError, RuntimeError):
    """A requested exhaustive search is too large for desk-scale work."""


def check_count(name, value):
    """value as an int; ParameterError unless an integer >= 1, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}")
    return int(value)
