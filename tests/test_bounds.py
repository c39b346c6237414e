import sys
import time
from fractions import Fraction

import pytest

import strategies
from slrc.bounds import (MAX_DIGITS, rate_availability_bound,
                         rate_formula, rate_report, rate_resolvable,
                         rate_seq_bound)
from slrc.construct import ConstructionParams, build_parity_check
from slrc.designs import complete_graph_design
from slrc.errors import InfeasibleError, ParameterError
from slrc.field import GF
from slrc.mds import build_mds_parity


def test_availability_bound():
    assert rate_availability_bound(3, 1) == Fraction(3, 4)
    assert rate_availability_bound(3, 2) == Fraction(9, 14)
    assert rate_availability_bound(3, 3) == Fraction(9, 14) * Fraction(9, 10)


def _product(r, t):
    out = Fraction(1)
    for j in range(1, t + 1):
        out *= 1 / (1 + Fraction(1, j * r))
    return out


def test_availability_bound_is_the_product():
    for r in range(1, 6):
        for t in range(1, 40):
            assert rate_availability_bound(r, t) == _product(r, t)


def test_availability_bound_at_r1_telescopes_without_a_loop():
    start = time.perf_counter()
    rep = rate_report(1, 10 ** 6, 3)            # t = t_i (delta - 1)
    assert rep["availability_bound"] == Fraction(1, 2 * 10 ** 6 + 1)
    assert time.perf_counter() - start < 1.0


def test_print_limit_is_pythons():
    get = getattr(sys, "get_int_max_str_digits", None)
    assert get is None or get() in (0, MAX_DIGITS)


@pytest.mark.parametrize("r", [2, 5, 40])
def test_availability_bound_refused_exactly_past_the_print_limit(r):
    # the first t whose product has a denominator of more than MAX_DIGITS
    # digits; the denominators only grow with t, so every later t is refused
    out, t, longest = Fraction(1), 0, 10 ** MAX_DIGITS
    while out.denominator < longest:
        last, t = out, t + 1
        out *= 1 / (1 + Fraction(1, t * r))
        assert out.denominator > last.denominator
    assert rate_availability_bound(r, t - 1) == last
    for past in (t, t + 1, 10 ** 9):
        with pytest.raises(InfeasibleError):
            rate_availability_bound(r, past)


def test_seq_bounds():
    assert rate_seq_bound(3, 2) == Fraction(3, 5)
    assert rate_seq_bound(3, 3) == Fraction(9, 16)
    assert rate_seq_bound(3, 4) == Fraction(9, 17)
    assert rate_seq_bound(3, 5) == Fraction(27, 52)
    assert rate_resolvable(3, 3) == Fraction(9, 16)


def test_seq_bound_is_the_two_and_three_erasure_forms():
    for r in range(1, 30):
        assert rate_seq_bound(r, 2) == Fraction(r, r + 2)
        assert rate_seq_bound(r, 3) == Fraction(r, r + 1) ** 2


def test_seq_bound_needs_positive_r_and_t():
    for r, t in ((0, 2), (3, 0)):
        with pytest.raises(ValueError):
            rate_seq_bound(r, t)


def test_formula_rate_reference():
    assert rate_formula(3, 2, 3) == Fraction(1, 5)


def test_formula_rate_is_exact_past_the_float_range():
    # ceil(t / r) in floats ended in an OverflowError here, and rounds
    # wrongly past 2**53
    t_i = 10 ** 320
    assert rate_formula(3, t_i, 3) == Fraction(1, 1 + -(-2 * t_i // 3) + 2)
    assert rate_formula(1, 2 ** 60 + 1, 2) == Fraction(1, 2 ** 60 + 3)


def _reference_params(delta=3):
    gf = GF(4)
    return ConstructionParams(r=3, delta=delta, t_i=2, field=gf,
                              design=complete_graph_design(3),
                              mds=build_mds_parity(3, delta, gf))


def test_exact_rate_reference():
    assert _reference_params().rate == Fraction(3, 8)


def test_exact_rate_delta2():
    assert _reference_params(delta=2).rate == Fraction(6, 11)


def test_exact_rate_matches_matrix_dimensions():
    params = _reference_params()
    code = build_parity_check(params)
    assert params.rate == Fraction(code.dimension, code.n)


def test_report_flags_divergence():
    rep = rate_report(3, 2, 3, params=_reference_params())
    assert rep["exact_rate"] == Fraction(3, 8)
    assert rep["closed_form_rate"] == Fraction(1, 5)
    assert any("diverges" in n for n in rep["notes"])


@pytest.mark.parametrize("point,named", [
    ((2, 2, 3), "r = 2"), ((3, 3, 3), "t_i = 3"),
    ((2, 2, 2), "r = 2, delta = 2 but the code has r = 3, delta = 3")])
def test_report_refuses_a_point_other_than_the_codes(point, named):
    # the exact rate belongs to the code's own (r, t_i, delta)
    with pytest.raises(ParameterError, match=named):
        rate_report(*point, params=_reference_params())


def test_report_flags_even_t_hypothesis():
    rep = rate_report(3, 2, 3)
    assert any("odd t" in n for n in rep["notes"])


RATE_KEYS = ("exact_rate", "closed_form_rate", "availability_bound",
             "2seq_bound", "3seq_bound", "resolvable_family_rate")


def test_report_is_the_printed_table_in_order():
    rep = rate_report(3, 2, 3, params=_reference_params())
    assert tuple(rep) == ("r", "t_i", "delta", "t") + RATE_KEYS + ("notes",)
    assert (rep["r"], rep["t_i"], rep["delta"], rep["t"]) == (3, 2, 3, 4)


def _reports():
    """The report at r 1..7, t_i 1..4, delta 2..5 without params, and at
    each admissible (r, delta, t_i, design) with its code's params."""
    for r in range(1, 8):
        for t_i in range(1, 5):
            for delta in range(2, 6):
                yield rate_report(r, t_i, delta)
    seen = set()
    for point in strategies.ADMISSIBLE:
        r, delta, t_i, _, design, _ = point
        if (r, delta, t_i, design) not in seen:
            seen.add((r, delta, t_i, design))
            yield rate_report(r, t_i, delta,
                              params=strategies.build(*point).params)


def test_all_values_in_unit_interval():
    # the CLI prints str(Fraction), which reads num/den only for a value
    # that is not an integer
    for rep in _reports():
        for key in RATE_KEYS:
            v = rep[key]
            if v is None:
                assert key == "exact_rate"
                continue
            assert isinstance(v, Fraction) and 0 < v < 1
            assert str(v) == f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("point", [(0, 2, 3), (3, 0, 3), (3, 2, 1),
                                   (-1, 2, 3), (3, 2, 0)])
def test_report_refuses_a_point_outside_the_family(point):
    r, t_i, delta = point
    with pytest.raises(ParameterError, match=(
            f"^(r must be >= 1, got {r}|t_i must be >= 1, got {t_i}"
            f"|delta must be >= 2, got {delta})$")):
        rate_report(r, t_i, delta)
