from fractions import Fraction

import pytest

from slrc.bounds import (exact_rate, rate_availability_bound, rate_formula,
                         rate_report, rate_resolvable, rate_seq_bound)
from slrc.construct import ConstructionParams, build_parity_check
from slrc.designs import complete_graph_design
from slrc.errors import ParameterError
from slrc.field import GF
from slrc.mds import build_mds_parity


def test_availability_bound():
    assert rate_availability_bound(3, 1) == Fraction(3, 4)
    assert rate_availability_bound(3, 2) == Fraction(9, 14)
    assert rate_availability_bound(3, 3) == Fraction(9, 14) * Fraction(9, 10)


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


def _reference_params(delta=3):
    gf = GF(4)
    return ConstructionParams(r=3, delta=delta, t_i=2, field=gf,
                              design=complete_graph_design(3),
                              mds=build_mds_parity(3, delta, gf))


def test_exact_rate_reference():
    assert exact_rate(_reference_params()) == Fraction(3, 8)


def test_exact_rate_delta2():
    assert exact_rate(_reference_params(delta=2)) == Fraction(6, 11)


def test_exact_rate_matches_matrix_dimensions():
    params = _reference_params()
    code = build_parity_check(params)
    assert exact_rate(params) == Fraction(code.dimension, code.n)


def test_report_flags_divergence():
    rep = rate_report(3, 2, 3, params=_reference_params())
    assert rep.exact == Fraction(3, 8)
    assert rep.formula == Fraction(1, 5)
    assert any("diverges" in n for n in rep.notes)


@pytest.mark.parametrize("point,named", [
    ((2, 2, 3), "r = 2"), ((3, 3, 3), "t_i = 3"),
    ((2, 2, 2), "r = 2, delta = 2 but the code has r = 3, delta = 3")])
def test_report_refuses_a_point_other_than_the_codes(point, named):
    # the exact rate belongs to the code's own (r, t_i, delta)
    with pytest.raises(ParameterError, match=named):
        rate_report(*point, params=_reference_params())


def test_report_flags_even_t_hypothesis():
    rep = rate_report(3, 2, 3)
    assert any("odd t" in n for n in rep.notes)


def test_all_values_in_unit_interval():
    rep = rate_report(4, 2, 2)
    for v in (rep.formula, rep.availability_bound, rep.seq2_bound,
              rep.seq3_bound, rep.resolvable_rate):
        assert 0 < v <= 1
