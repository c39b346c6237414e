"""Bad input at the public entry points.

Hypothesis draws JSON-like values -- huge and negative integers, bools,
floats, strings, None, nested lists and objects -- and numpy scalars,
and puts them into the messages of `LinearCode.encode`, the words and
erased sets of `execute_repair` and `plan_repair`, the locality r of
`plan_repair`, the r, counts and seed of `trial_campaign` and
`campaign`, and the counts (r, delta, t_i, q, k, b, block counts, t and
caps) of the field, design, MDS, layout, bound and verification entry
points.  Each call either
returns or raises an `SlrcError`: never a bare TypeError, IndexError or
ValueError.  What a call returns is checked too: symbols come back as
Python ints of the field, whatever integers went in, and so do counts.
Fixed cases pin the non-count inputs the same search found: a ragged or
3-D matrix, and an incidence matrix that is not 0s and 1s; and the
coordinates of `recovery_sets_for` and `puncture`, read as erased ones.  Whole matrix
and design documents, every key of which may be dropped, spoiled or
given a JSON-like value at once, go into `matrixio.dict_to_matrix` and
`Design.from_dict` (and what the latter returns into `validate_design`).

Valid counts that would make a call long (a locality r above 4, which
enumerates most of the dual code, a complete-graph design past r = 6,
or thousands of trials) are not drawn; every invalid value is.
"""

import numbers

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import strategies
from dual_oracle import syndrome
from slrc.bounds import (rate_availability_bound, rate_formula, rate_report,
                         rate_resolvable, rate_seq_bound)
from slrc.construct import CodeShape, ConstructionParams, build_w_star
from slrc.designs import (Design, affine_design, complete_graph_design,
                          load_design, validate_design)
from slrc.errors import DesignError, ParameterError, SlrcError
from slrc.field import GF
from slrc.linear import LinearCode, puncture, recovery_sets_for
from slrc.matrixio import dict_to_matrix, matrix_to_dict
from slrc.mds import build_mds_parity
from slrc.reference import reference_code
from slrc.simulate import (campaign, execute_repair, plan_repair,
                           trial_campaign)
from slrc.verify import check_sequential, max_sequential_t

BIG = 2 ** 70
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

# the reference code over GF(4), and a code over GF(3), whose field sum
# adds base-p digits instead of XOR-ing symbols
CODES = st.sampled_from([
    reference_code(),
    strategies.build(2, 2, 2, 3, "complete-graph", "vandermonde")])

NUMPY_SCALARS = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.sampled_from([np.uint64(2 ** 64 - 1), np.int8(-2), np.float64(1.0),
                     np.float32(0.5), np.float64("nan"), np.True_,
                     np.False_]))
SCALARS = st.one_of(
    st.integers(-8, 8), st.integers(-BIG, BIG),
    st.sampled_from([10 ** 400, -10 ** 400]), st.booleans(), st.floats(),
    st.text(max_size=3), st.none(), NUMPY_SCALARS)
JSON_LIKE = st.recursive(
    SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)


def _count(value, least=1):
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, (bool, np.bool_)) and value >= least)


@st.composite
def spoiled(draw, valid):
    """The list `valid` as it is, as a numpy array, with one entry
    replaced or appended, or replaced whole by a JSON-like value."""
    how = draw(st.sampled_from(["as is", "array", "entry", "append",
                                "whole"]))
    if how == "as is":
        return valid
    if how == "array":
        dtype = draw(st.sampled_from([np.int64, np.uint16, np.float64,
                                      np.bool_, object]))
        return np.array(valid, dtype=dtype)
    if how == "whole":
        return draw(JSON_LIKE)
    value = draw(JSON_LIKE)
    if how == "append" or not valid:
        return valid + [value]
    i = draw(st.integers(0, len(valid) - 1))
    return valid[:i] + [value] + valid[i + 1:]


def _small_or_bad(limit, least=1):
    """A count: an integer in least..limit, a Python or a numpy one, or
    any JSON-like value that is no integer >= least."""
    return st.one_of(st.integers(least, limit),
                     st.integers(least, limit).map(np.int64),
                     JSON_LIKE.filter(lambda v: not _count(v, least)))


def _is_word(code, word):
    return (type(word) is tuple and len(word) == code.n
            and all(type(a) is int and 0 <= a < code.field.q for a in word))


@SETTINGS
@given(st.data())
def test_encode_returns_a_codeword_or_raises(data):
    code = data.draw(CODES)
    message = data.draw(spoiled(data.draw(strategies.messages(code))))
    try:
        word = code.encode(message)
    except SlrcError:
        return
    assert _is_word(code, word)
    assert not any(syndrome(code.field, code.H, word))


@SETTINGS
@given(st.data())
def test_plan_repair_plans_or_raises(data):
    code = data.draw(CODES)
    erased = data.draw(st.lists(st.integers(0, code.n - 1), max_size=4))
    r = data.draw(st.one_of(st.just(code.params.r), _small_or_bad(4)))
    try:
        schedule = plan_repair(code, data.draw(spoiled(erased)), r)
    except SlrcError:
        return
    assert all(type(i) is int and 0 <= i < code.n for i in schedule.erased)
    assert list(schedule.erased) == sorted(set(schedule.erased))


@SETTINGS
@given(st.data())
def test_execute_repair_restores_or_raises(data):
    code = data.draw(CODES)
    word = code.encode(data.draw(strategies.messages(code)))
    erased = sorted(data.draw(st.sets(st.integers(0, code.n - 1),
                                      min_size=1, max_size=3)))
    schedule = plan_repair(code, erased, code.params.r)
    assume(schedule.complete)
    given_word = data.draw(spoiled(list(word)))
    given_erased = data.draw(spoiled(erased))
    try:
        restored = execute_repair(code, given_word, given_erased, schedule)
    except SlrcError:
        return
    assert _is_word(code, restored)
    if isinstance(given_word, (list, np.ndarray)) and [*given_word] == [
            *word]:
        assert restored == word


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_trial_campaign_runs_or_raises(data):
    # and `campaign`, the array route, returns the same summary or raises
    # the same error
    code = data.draw(CODES)
    r = data.draw(st.one_of(st.just(code.params.r), _small_or_bad(4)))
    t = data.draw(st.one_of(st.integers(1, BIG), _small_or_bad(4)))
    trials = data.draw(_small_or_bad(6))
    seed = data.draw(st.one_of(st.integers(0, BIG), JSON_LIKE))
    outcomes = []
    for route in (trial_campaign, campaign):
        try:
            outcomes.append(route(code, r, t, trials, seed))
        except SlrcError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    stats = outcomes[0]
    if isinstance(stats, dict):
        assert stats["trials"] == trials and 0 <= stats["success_rate"] <= 1


MDS = build_mds_parity(3, 3, GF(4))
REF = reference_code()

# each entry point with one strategy per count it takes: r <= 6, q <= 16
# and t <= 50 when valid
CONSTRUCTION = {
    "GF": (GF, [_small_or_bad(16, 2)]),
    "build_mds_parity": (lambda r, delta: build_mds_parity(r, delta, GF(16)),
                         [_small_or_bad(6), _small_or_bad(6, 2)]),
    "complete_graph_design": (complete_graph_design, [_small_or_bad(6, 2)]),
    "affine_design": (affine_design, [_small_or_bad(6, 2),
                                      _small_or_bad(8, 2)]),
    "build_w_star": (lambda blocks: build_w_star(blocks, MDS),
                     [_small_or_bad(6)]),
    "CodeShape": (lambda *counts: CodeShape(GF(4), *counts),
                  [_small_or_bad(6), _small_or_bad(6, 2), _small_or_bad(6),
                   _small_or_bad(20), _small_or_bad(10)]),
    "ConstructionParams": (
        lambda r, delta, t_i: ConstructionParams(
            r=r, delta=delta, t_i=t_i, field=GF(4),
            design=complete_graph_design(3), mds=MDS),
        [_small_or_bad(6), _small_or_bad(6, 2), _small_or_bad(6)]),
}
BOUNDS = {
    "rate_report": (rate_report, [_small_or_bad(6), _small_or_bad(10),
                                  _small_or_bad(6, 2)]),
    "rate_availability_bound": (rate_availability_bound,
                                [_small_or_bad(6), _small_or_bad(50)]),
    "rate_seq_bound": (rate_seq_bound, [_small_or_bad(6), _small_or_bad(50)]),
    "rate_resolvable": (rate_resolvable,
                        [_small_or_bad(6), _small_or_bad(50)]),
    "rate_formula": (rate_formula, [_small_or_bad(6), _small_or_bad(10),
                                    _small_or_bad(6, 2)]),
}
VERIFY = {
    "check_sequential": (lambda r, t: check_sequential(REF, r, t),
                         [_small_or_bad(4), _small_or_bad(50)]),
    "max_sequential_t": (lambda r, cap: max_sequential_t(REF, r, cap),
                         [_small_or_bad(4), _small_or_bad(50)]),
}


def _call(data, entry_points):
    """Call one drawn entry point on drawn counts: its result, or None
    when it raised an SlrcError."""
    name = data.draw(st.sampled_from(sorted(entry_points)))
    call, counts = entry_points[name]
    try:
        return call(*(data.draw(count) for count in counts))
    except SlrcError:
        return None


@SETTINGS
@given(st.data())
def test_construction_entry_points_build_or_raise(data):
    built = _call(data, CONSTRUCTION)
    for key in ("q", "r", "delta", "t_i", "k", "b"):
        assert type(getattr(built, key, 0)) is int


@SETTINGS
@given(st.data())
def test_bounds_return_a_rate_or_raise(data):
    rate = _call(data, BOUNDS)
    if isinstance(rate, dict):
        assert all(type(rate[key]) is int for key in ("r", "t_i", "delta"))
        rate = rate["availability_bound"]
    assert rate is None or (isinstance(rate, Fraction) and 0 < rate < 1)


@SETTINGS
@given(st.data())
def test_sequential_checks_report_or_raise(data):
    report = _call(data, VERIFY)
    assert report is None or type(report.checked_t) is int


@st.composite
def spoiled_document(draw, valid):
    """The document `valid` with every key, those of nested objects too,
    kept, dropped, spoiled or given a JSON-like value, each key on its
    own draw; or a JSON-like value.  A list of integers is spoiled as
    `spoiled` spoils it, and another list (of role names, or of lines)
    in one entry, which is spoiled in turn or given a JSON-like value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_LIKE)
    doc = {}
    for key, value in valid.items():
        how = draw(st.sampled_from(["keep", "drop", "spoil", "value"]))
        if how == "keep":
            doc[key] = value
        elif how == "value" or not isinstance(value, (dict, list)):
            doc[key] = draw(JSON_LIKE)
        elif how == "spoil":
            doc[key] = draw(_spoiled_value(value))
    return doc


def _spoiled_value(valid):
    if isinstance(valid, dict):
        return spoiled_document(valid)
    if all(type(v) is int for v in valid):
        return spoiled(valid)
    return st.integers(0, len(valid) - 1).flatmap(lambda i: st.one_of(
        _spoiled_value(valid[i]) if isinstance(valid[i], list) else JSON_LIKE,
        JSON_LIKE).map(lambda v: valid[:i] + [v] + valid[i + 1:]))


# a document with params and coordinate roles, one without, and one of
# an odd-characteristic field
MATRIX_DOCUMENTS = st.sampled_from([
    matrix_to_dict(REF), matrix_to_dict(LinearCode(REF.field, REF.H)),
    matrix_to_dict(strategies.build(2, 2, 2, 3, "complete-graph",
                                    "vandermonde"))])
DESIGN_DOCUMENTS = st.sampled_from([complete_graph_design(3).to_dict(),
                                    affine_design(3, 2).to_dict()])


# a document draws many values: fewer examples keep the two tests near 1 s
DOCUMENT_SETTINGS = settings(SETTINGS, max_examples=50)


@DOCUMENT_SETTINGS
@given(st.data())
def test_matrix_documents_load_or_raise(data):
    doc = data.draw(spoiled_document(data.draw(MATRIX_DOCUMENTS)))
    try:
        matrix = dict_to_matrix(doc)
    except SlrcError:
        return
    H, q = matrix.H, matrix.field.q
    assert H.ndim == 2 and H.shape[1] >= 1 and H.dtype == np.int64
    assert ((0 <= H) & (H < q)).all()


@DOCUMENT_SETTINGS
@given(st.data())
def test_design_documents_load_or_raise(data):
    doc = data.draw(spoiled_document(data.draw(DESIGN_DOCUMENTS)))
    try:
        design = Design.from_dict(doc)
    except SlrcError:
        return
    assert all(type(getattr(design, key)) is int for key in ("k", "r", "t_i"))
    violation = validate_design(design)
    assert violation is None or isinstance(violation, str)


@pytest.mark.parametrize("H", [[[1, 0], [1]], [[[1, 0]], [[0, 1]]]])
def test_linear_code_refuses_a_ragged_or_3d_matrix(H):
    with pytest.raises(ParameterError, match="H must be a 2-D matrix"):
        LinearCode(GF(4), H)


@pytest.mark.parametrize("matrix, match", [
    ([[1, 1], [1]], "must be 2-D"),
    ([["a", 1], [1, 1]], "must be 0 or 1"),
    # K3's incidence but for 1.5, which is no 0/1 entry though its int is
    ([[1.5, 1, 0], [1, 0, 1], [0, 1, 1]], "must be 0 or 1")])
def test_load_design_refuses_a_ragged_or_non_integer_matrix(matrix, match):
    with pytest.raises(DesignError, match=match):
        load_design(matrix)


# a coordinate is read as `execute_repair` reads an erased one: -1 and n
# were coordinate n - 1 and a bare IndexError, and a bool was 0 or 1
@pytest.mark.parametrize("i", [-1, 16, True, 1.5, "0", None, [0]])
def test_recovery_sets_for_refuses_a_coordinate_outside_the_code(i):
    with pytest.raises(ParameterError, match="^coordinate i must "):
        recovery_sets_for(REF, i, 3)


def test_recovery_sets_for_reads_a_numpy_coordinate_as_an_int():
    assert recovery_sets_for(REF, np.int64(6), 3) == recovery_sets_for(
        REF, 6, 3)


# [-1, 0] projected onto coordinates 15 and 0, [99] and [0.5] ended in a
# bare IndexError, and an empty set in a bare ValueError
@pytest.mark.parametrize("keep", [[-1, 0], [99], [], [0, True], [0.5], 5])
def test_puncture_refuses_coordinates_outside_the_code(keep):
    with pytest.raises(ParameterError, match="^keep must "):
        puncture(REF, keep)


def test_puncture_reads_a_repeated_coordinate_once():
    once = puncture(REF, [0, 1, 2, 6, 7])
    twice = puncture(REF, np.array([7, 0, 0, 1, 2, 6, 7]))
    assert (twice.n, twice.H.tolist()) == (once.n, once.H.tolist())
