"""Exception types shared across the package, `check_count`, the one
reader of a count: every r, delta, t_i, q, k, b, block count, tolerance,
trial count and seed a public entry point takes, and `check_coordinates`,
the one reader of coordinates: the erased sets of planning and repair, a
recovery set's coordinate and a puncture's kept set.  Upper bounds and
rules that relate two parameters stay with the code that needs them."""

import numbers
import operator


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


def check_coordinates(name, coords, n):
    """coords as a sorted tuple of distinct ints; ParameterError for a
    coordinate that is not an integer (a bool is none) or lies outside
    0..n-1."""
    try:
        given = tuple(coords)
        if operator.countOf(map(type, given), int) != len(given):
            if bool in map(type, given):    # operator.index(True) is 1
                raise TypeError
            given = map(operator.index, given)      # numpy integers
        out = tuple(sorted({*given}))
    except TypeError:
        raise ParameterError(f"{name} must be integers, "
                             f"got {coords!r}") from None
    if out and (out[0] < 0 or out[-1] >= n):
        raise ParameterError(f"{name} must lie in 0..{n - 1}, "
                             f"got {list(out)}")
    return out
