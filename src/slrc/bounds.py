"""Rate bounds and exact-rate accounting, all in exact rationals.  Every
r, t, t_i and delta is read by `errors.check_count`."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .construct import CodeShape
from .errors import InfeasibleError, ParameterError, check_count

# Python's default int-to-str limit: no longer denominator is printed
MAX_DIGITS = 4300


def rate_availability_bound(r, t):
    """Product bound on the rate of codes with locality r and
    availability t: prod_{j=1..t} jr/(jr + 1).  Raises InfeasibleError
    once the denominator passes MAX_DIGITS digits, or Python's int-to-str
    limit when one is set lower; it only grows, as step j multiplies it by
    jr + 1 and divides it by a factor of j."""
    r, t = check_count("r", r), check_count("t", t)
    if r == 1:                      # the product telescopes
        return Fraction(1, t + 1)
    digits = min(MAX_DIGITS, getattr(sys, "get_int_max_str_digits",
                                     lambda: 0)() or MAX_DIGITS)
    out, longest = Fraction(1), 10 ** digits
    for j in range(1, t + 1):
        out *= Fraction(j * r, j * r + 1)
        if out.denominator >= longest:
            raise InfeasibleError(
                f"the availability bound at r = {r}, t = {t} is too long to "
                f"print: its denominator has more than {digits} digits")
    return out


def rate_seq_bound(r, t):
    """Rate bound for locality r and t sequential erasures (Balaji, Kini
    and Kumar, arXiv:1611.08561): r^s / (r^s + 2 sum_{i<s} r^i) at
    t = 2s, r^(s+1) / (r^(s+1) + 2 sum_{i=1..s} r^i + 1) at t = 2s + 1;
    r/(r+2) at t = 2 and (r/(r+1))^2 at t = 3."""
    r, t = check_count("r", r), check_count("t", t)
    s, odd = divmod(t, 2)
    top = r ** (s + odd)
    return Fraction(top, top + 2 * sum(r ** i for i in range(odd, s + odd))
                    + odd)


def rate_resolvable(r, t):
    """Rate of the resolvable-configuration family:
    (1 + (t-1)/r + 1/r^2)^-1.  Stated for odd t >= 3; callers flag
    other t rather than failing.  Raises ParameterError, by
    `check_count`, unless r and t are integers >= 1."""
    r, t = check_count("r", r), check_count("t", t)
    return 1 / (1 + Fraction(t - 1, r) + Fraction(1, r * r))


def rate_formula(r, t_i, delta):
    """Literal evaluation of the quoted closed-form rate
    (1 + ceil(t/r) + ceil(1/r^2)(delta-1))^-1 with t = t_i(delta-1),
    in exact rationals for any t.

    On the worked instance this diverges from the true k/n; reports
    juxtapose both rather than asserting equality.  Raises
    ParameterError, by `check_count`, unless r and t_i are integers >= 1
    and delta one >= 2.
    """
    r, t_i = check_count("r", r), check_count("t_i", t_i)
    delta = check_count("delta", delta, 2)
    t = t_i * (delta - 1)
    denom = (1 + math.ceil(Fraction(t, r))
             + math.ceil(Fraction(1, r * r)) * (delta - 1))
    return Fraction(1, denom)


def rate_report(r, t_i, delta, params: CodeShape = None):
    """The rate table, in print order: every applicable bound next to
    the construction's exact rate (None without params), as Fractions
    strictly inside (0, 1), then notes flagging hypothesis violations
    and divergences.  Raises ParameterError, by `check_count`, unless r
    and t_i are integers >= 1 and delta one >= 2, and when params has
    another r, t_i or delta: the exact rate would be another code's."""
    r, t_i = check_count("r", r), check_count("t_i", t_i)
    delta = check_count("delta", delta, 2)
    t = t_i * (delta - 1)
    notes = []
    exact = None
    if params is not None:
        asked = {"r": r, "t_i": t_i, "delta": delta}
        differ = [k for k in asked if asked[k] != getattr(params, k)]
        if differ:
            raise ParameterError("asked for {} but the code has {}".format(*(
                ", ".join(f"{k} = {v[k]}" for k in differ)
                for v in (asked, vars(params)))))
        exact = params.rate
    formula = rate_formula(r, t_i, delta)
    if exact is not None and exact != formula:
        notes.append(
            f"closed-form rate {formula} diverges from exact rate {exact}")
    if not (t >= 3 and t % 2 == 1):
        notes.append(
            f"resolvable-family rate stated for odd t >= 3; t = {t} is outside")
    return {
        "r": r, "t_i": t_i, "delta": delta, "t": t,
        "exact_rate": exact,
        "closed_form_rate": formula,
        "availability_bound": rate_availability_bound(r, t),
        "2seq_bound": rate_seq_bound(r, 2),
        "3seq_bound": rate_seq_bound(r, 3),
        "resolvable_family_rate": rate_resolvable(r, t),
        "notes": notes,
    }
