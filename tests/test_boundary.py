"""Bad input at the entry points of repair and simulation.

Hypothesis draws JSON-like values -- huge and negative integers, bools,
floats, strings, None, nested lists and objects -- and numpy scalars,
and puts them into the messages of `LinearCode.encode`, the words and
erased sets of `execute_repair` and `plan_repair`, the locality r of
`plan_repair`, and the counts and seed of `trial_campaign`.  Each call
either returns or raises an `SlrcError`: never a bare TypeError,
IndexError or ValueError.  What a call returns is checked too: symbols
come back as Python ints of the field, whatever integers went in.

Valid counts that would make a call long (a locality r above 4, which
enumerates most of the dual code, or thousands of trials) are not
drawn; every invalid value is.
"""

import numbers

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import strategies
from dual_oracle import syndrome
from slrc.errors import SlrcError
from slrc.reference import reference_code
from slrc.simulate import execute_repair, plan_repair, trial_campaign

BIG = 2 ** 70
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

# the reference code over GF(4), and a code over GF(3), whose encoder
# sums base-p digit slots instead of XOR-ing symbols
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


def _positive_int(value):
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, (bool, np.bool_)) and value >= 1)


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


def _small_or_bad(limit):
    """A count: an integer in 1..limit, or any JSON-like value that is no
    positive integer."""
    return st.one_of(st.integers(1, limit),
                     JSON_LIKE.filter(lambda v: not _positive_int(v)))


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
    code = data.draw(CODES)
    t = data.draw(st.one_of(st.integers(1, BIG), _small_or_bad(4)))
    trials = data.draw(_small_or_bad(6))
    seed = data.draw(st.one_of(st.integers(0, BIG), JSON_LIKE))
    try:
        stats = trial_campaign(code, code.params.r, t, trials, seed)
    except SlrcError:
        return
    assert stats["trials"] == trials and 0 <= stats["success_rate"] <= 1
