"""Exception types shared across the package, and `check_count`, the one
reader of a count: every r, delta, t_i, q, k, b, block count, tolerance,
trial count and seed a public entry point takes.  Upper bounds and rules
that relate two parameters stay with the code that needs them."""

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


def check_count(name, value, least=1):
    """value as an int; ParameterError unless an integer >= least, not a
    bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)
