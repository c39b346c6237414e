"""The recovery-set table, repair planning and the sequential check
against the row-space oracles of `dual_oracle`, on random codes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dual_oracle
import strategies
from slrc import linear
from slrc.construct import ConstructionParams, build_parity_check
from slrc.errors import ParameterError
from slrc.field import GF
from slrc.linear import (LinearCode, all_recovery_sets, dual_low_weight,
                         peel_table, recovery_table)
from slrc.mds import build_mds_parity
from slrc.reference import reference_code
from slrc.simulate import execute_repair, plan_repair, trial_campaign
from slrc.verify import (MAX_NODES, _first_stopping_set, check_code_structure,
                         check_information_locality, check_sequential,
                         max_sequential_t)


@st.composite
def codes_with_erasures(draw):
    """(field, H, r, erased, message): a random parity check over
    GF(2..5) with n <= 12, small enough for the row-space oracle."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, int(math.log(5_000, q))))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * n,
                            max_size=rows * n))
    r = draw(st.integers(1, 3))
    erased = draw(st.sets(st.integers(0, n - 1)))
    message = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    H = np.array(entries, dtype=np.int64).reshape(rows, n)
    return GF(q), H, r, erased, message


def _codeword(field, H, message):
    """The combination of the oracle's null-space basis of H with the
    message's leading entries as coefficients."""
    n = H.shape[1]
    word = [0] * n
    for c, row in zip(message, dual_oracle._nullspace(field, H, n)):
        word = [field.add(x, field.mul(c, y)) for x, y in zip(word, row)]
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(codes_with_erasures())
def test_plan_repair_matches_peeling_oracle(case):
    field, H, r, erased, message = case
    lc = LinearCode(field, H)
    schedule = plan_repair(lc, erased, r)
    residual = dual_oracle.peel_residual(field, H, erased, r)
    assert schedule.complete == (not residual)
    assert schedule.residual == residual
    if schedule.complete:
        word = _codeword(field, H, message)
        assert not any(dual_oracle.syndrome(field, H, word))
        assert execute_repair(lc, word, erased, schedule) == word


@settings(max_examples=150, deadline=None)
@given(codes_with_erasures())
def test_all_recovery_sets_matches_per_coordinate_oracle(case):
    field, H, r, _, _ = case
    table = all_recovery_sets(LinearCode(field, H), r)
    words = dual_oracle.rowspace_words(field, H, r + 1)
    assert table == [dual_oracle.recovery_sets_oracle(field, words, i)
                     for i in range(H.shape[1])]


def _records(code, r):
    """The recovery table's records, a tuple per coordinate in the
    table's order."""
    table = recovery_table(code, r)
    ends = table.first.tolist()
    return [tuple(map(table.step, range(a, b)))
            for a, b in zip(ends, ends[1:])]


def _assert_masks_index_the_records(code, r):
    peel, steps = peel_table(code, r), _records(code, r)
    assert [len(row) for row in peel] == [len(row) for row in steps]
    for i, (masks, row) in enumerate(zip(peel, steps)):
        assert row == tuple(sorted(row, key=lambda rs: (rs.helpers,
                                                       rs.coeffs)))
        for mask, rs in zip(masks, row):
            assert rs.repaired == i and i not in rs.helpers
            assert mask == sum(1 << h for h in rs.helpers)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.codes, st.integers(1, 4))
def test_peel_table_holds_the_masks_of_repair_steps(code, r):
    _assert_masks_index_the_records(code, min(r, code.params.r))


@settings(max_examples=150, deadline=None)
@given(codes_with_erasures())
def test_peel_table_holds_the_masks_of_repair_steps_on_any_code(case):
    field, H, r, _, _ = case
    _assert_masks_index_the_records(LinearCode(field, H), r)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.codes, st.integers(1, 4))
def test_all_recovery_sets_is_the_by_size_view_of_peel_table(code, r):
    # of the recovery table's records, the sets whose masks peel_table
    # holds at the same index; sorted() is stable, so equal sizes keep
    # the (helpers, coeffs) order
    r = min(r, code.params.r)
    assert all_recovery_sets(code, r) == [
        sorted(row, key=lambda rs: len(rs.helpers))
        for row in _records(code, r)]


@settings(max_examples=100, deadline=None)
@given(codes_with_erasures(), st.integers(1, 4))
def test_failing_pattern_is_first_stuck_pattern(case, t):
    field, H, r, _, _ = case
    report = check_sequential(LinearCode(field, H), r, t)
    expect = dual_oracle.first_stuck_pattern(field, H, r, t)
    assert report.failing_pattern == expect
    assert report.holds == (expect is None)


def _assert_search_matches_patterns(lc, r, cap, masks):
    if cap < 1:
        for check in (max_sequential_t, check_sequential):
            with pytest.raises(ParameterError, match="must be >= 1"):
                check(lc, r, cap)
        return
    t_star, failing, witnesses = dual_oracle.sequential_by_patterns(
        masks, lc.n, cap)
    rep = max_sequential_t(lc, r, cap)
    assert (rep.t_star, rep.checked_t, rep.failing_pattern, rep.witnesses,
            rep.complete) == (t_star, t_star, failing, witnesses, True)
    rep = check_sequential(lc, r, cap)
    assert (rep.holds, rep.checked_t, rep.failing_pattern, rep.witnesses,
            rep.complete) == (failing is None, cap, failing, witnesses, True)


@settings(max_examples=150, deadline=None)
@given(codes_with_erasures(), st.integers(0, 13))
def test_stopping_set_search_matches_pattern_oracle(case, cap):
    field, H, r, _, _ = case
    words = dual_oracle.rowspace_words(field, H, r + 1)
    _assert_search_matches_patterns(
        LinearCode(field, H), r, cap,
        dual_oracle.helper_masks(words, H.shape[1]))


def test_stopping_set_search_matches_pattern_oracle_on_sweep_points():
    # the dual words of these points are checked against the brute-force
    # oracles in test_linear
    from test_acceptance import _smallest_prime_power, sweep_grid
    checked = 0
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        params = ConstructionParams(r=r, delta=delta, t_i=t_i, field=fld,
                                    design=design,
                                    mds=build_mds_parity(r, delta, fld))
        code = build_parity_check(params)
        if code.n > 23:
            continue
        masks = dual_oracle.helper_masks(dual_low_weight(code, r + 1), code.n)
        _assert_search_matches_patterns(code, r, 9, masks)
        checked += 1
    assert checked == 11


# erasure patterns the pattern oracle checks per drawn code at most
ORACLE_PATTERNS = 100_000


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.codes.filter(lambda code: sum(
    math.comb(code.n, size) for size in range(1, code.params.t_claim + 2))
    <= ORACLE_PATTERNS))
def test_t_claim_holds_by_pattern_oracle(code):
    # one size past t_claim, so the oracle also sees where repair stops;
    # the dual words are checked against their own oracles in test_linear
    p = code.params
    masks = dual_oracle.helper_masks(dual_low_weight(code, p.r + 1), code.n)
    _assert_search_matches_patterns(code, p.r, p.t_claim + 1, masks)
    assert max_sequential_t(code, p.r, p.t_claim + 1).t_star >= p.t_claim


def test_peel_table_memo_is_one_entry_per_code_and_r():
    H = reference_code().H
    a, b = LinearCode(GF(4), H), LinearCode(GF(4), H)
    peel_table.cache_clear()
    table = peel_table(a, 3)
    assert peel_table(a, 3) is table
    # a code equal in H is another code: it gets its own build
    assert peel_table(b, 3) == table
    assert peel_table(b, 3) is not table
    assert peel_table.cache_info().misses == 2
    # another r rebuilds, and evicts the entry before it
    assert peel_table(b, 2) != peel_table(b, 3)
    assert peel_table.cache_info().misses == 4
    with pytest.raises(TypeError):
        table[0] = ()
    with pytest.raises(AttributeError):
        table[0].append(table[1][0])
    with pytest.raises(TypeError):
        table[0][0] = table[1][0]
    # nor the arrays of the recovery table the masks are read from
    with pytest.raises(ValueError, match="read-only"):
        recovery_table(b, 3).helpers[0, 0] = 0


def _counted_tables():
    """Empties the memos of `recovery_table` and `peel_table`; returns a
    function giving the misses of each since, the tables built."""
    for table in (recovery_table, peel_table):
        table.cache_clear()
    return lambda: (recovery_table.cache_info().misses,
                    peel_table.cache_info().misses)


def _refuse_records(monkeypatch, what):
    def refuse(*args):
        raise AssertionError(f"{what} built a RepairStep record")
    monkeypatch.setattr(linear, "RepairStep", refuse)


def test_one_table_per_sweep_point_and_campaign(monkeypatch):
    code = strategies.build(3, 3, 2, 4, "complete-graph", "vandermonde")
    p = code.params
    with monkeypatch.context() as patch:
        _refuse_records(patch, "a sweep point")
        builds = _counted_tables()
        check_sequential(code, p.r, p.t_claim)
        check_information_locality(code)
        check_code_structure(code)
        assert builds() == (1, 1)
    builds = _counted_tables()
    trial_campaign(code, p.r, p.t_claim, 50, 0)
    assert builds() == (1, 1)


def test_checks_build_no_repair_step(monkeypatch):
    # verification reads the helper bitmasks only: a record is made for
    # repair alone
    code = reference_code()
    want = (check_sequential(code, 3, 7), max_sequential_t(code, 3, 9),
            check_information_locality(code), check_code_structure(code))
    _refuse_records(monkeypatch, "a verification check")
    builds = _counted_tables()
    assert (check_sequential(code, 3, 7), max_sequential_t(code, 3, 9),
            check_information_locality(code),
            check_code_structure(code)) == want
    assert builds() == (1, 1)


@st.composite
def mask_families(draw):
    """masks[i] for n <= 12 coordinates, row by row empty, of sets that
    all lie below i, or of any sets (which may hold i or nothing), so
    rows no code produces are drawn too."""
    n = draw(st.integers(1, 12))
    masks = []
    for i in range(n):
        coords = draw(st.sampled_from([None, range(i), range(n)]))
        if coords is None:
            masks.append([])
            continue
        sets = (st.sets(st.sampled_from(coords), max_size=4) if coords
                else st.just(set()))
        masks.append([sum(1 << j for j in s)
                      for s in draw(st.lists(sets, max_size=4))])
    return masks


@settings(max_examples=300, deadline=None)
@given(mask_families())
def test_first_stopping_set_matches_oracle_on_any_masks(masks):
    first = dual_oracle.first_stopping_sets(masks)
    assert [_first_stopping_set(masks, size, [MAX_NODES])
            for size in range(1, len(masks) + 1)] == first


@pytest.mark.parametrize("r", [0, -1])
def test_checks_refuse_locality_below_one(r):
    # every r-taking check reads peel_table, which refuses r < 1 instead
    # of a table with no recovery sets
    ref = reference_code()
    for call in (lambda: peel_table(ref, r),
                 lambda: check_sequential(ref, r, 2),
                 lambda: max_sequential_t(ref, r, 4),
                 lambda: plan_repair(ref, {0}, r),
                 lambda: trial_campaign(ref, r, 2, 5, 0)):
        with pytest.raises(ParameterError, match=f"r must be >= 1, got {r}"):
            call()


@pytest.mark.parametrize("value", [2.5, True, "3", None])
@pytest.mark.parametrize("name", ["r", "t", "cap", "trials"])
def test_counts_must_be_integers(name, value):
    # a bool equals 1 and hashes like it, yet is refused even when the
    # r = 1 table is the one memoized
    ref = reference_code()
    peel_table(ref, 1)
    plan_repair(ref, {0}, 1)
    calls = {"r": [lambda: peel_table(ref, value),
                   lambda: recovery_table(ref, value),
                   lambda: check_sequential(ref, value, 2),
                   lambda: plan_repair(ref, {0}, value),
                   lambda: trial_campaign(ref, value, 2, 5, 0)],
             "t": [lambda: check_sequential(ref, 3, value),
                   lambda: trial_campaign(ref, 3, value, 5, 0)],
             "cap": [lambda: max_sequential_t(ref, 3, value)],
             "trials": [lambda: trial_campaign(ref, 3, 2, value, 0)]}
    for call in calls[name]:
        with pytest.raises(ParameterError, match="must be an integer, got"):
            call()


@pytest.mark.parametrize("value", [[3], {}, True])
def test_verify_reads_r_before_the_memo_key(value):
    # read before the memo key of peel_table and recovery_table, which an
    # unhashable r would end in a bare TypeError
    ref = reference_code()
    peel_table(ref, 1)
    for call in (lambda: peel_table(ref, value),
                 lambda: recovery_table(ref, value),
                 lambda: check_sequential(ref, value, 2),
                 lambda: max_sequential_t(ref, value, 4)):
        with pytest.raises(ParameterError,
                           match=f"r must be an integer, got "
                                 f"{re.escape(repr(value))}$"):
            call()


def test_counts_accept_numpy_integers():
    ref = reference_code()
    r, t, trials = np.int64(3), np.uint8(4), np.int32(20)
    assert peel_table(ref, r) == peel_table(ref, 3)
    assert check_sequential(ref, r, t) == check_sequential(ref, 3, 4)
    assert max_sequential_t(ref, r, t) == max_sequential_t(ref, 3, 4)
    assert trial_campaign(ref, r, t, trials, 0) == trial_campaign(
        ref, 3, 4, 20, 0)


@settings(max_examples=150, deadline=None)
@given(codes_with_erasures(), st.integers(1, 5))
def test_dual_search_returns_words_sorted_and_distinct(case, wmax):
    field, H, *_ = case
    words = linear._low_weight_dual_words(
        field, LinearCode(field, H).generator, wmax).tolist()
    keys = [(len(v) - v.count(0), v) for v in words]
    assert keys == sorted(keys)
    assert len(set(map(tuple, words))) == len(words)
