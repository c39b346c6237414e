import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dual_oracle
import strategies
from slrc.construct import (ConstructionParams, build_parity_check,
                            constructed_from_matrix)
from slrc.errors import InfeasibleError
from slrc.field import GF
from slrc.linear import (LinearCode, RepairStep, all_recovery_sets,
                         min_distance, peel_table, puncture,
                         punctured_distances)
from slrc.mds import build_mds_parity
from slrc.reference import golden, reference_code
from slrc.verify import (_max_disjoint, check_code_structure,
                         check_information_locality, check_sequential,
                         max_sequential_t, rank_report)


@pytest.fixture(scope="module")
def ref():
    return reference_code()


def brute_force_sequential(lc, r, t):
    """Oracle: for every pattern, decide repairability of each member by
    direct linear algebra (no recovery-set table): coordinate i is
    repairable from outside I iff puncturing away I \\ {i} leaves a dual
    word through i of weight <= r + 1."""
    from slrc.linear import dual_low_weight
    n = lc.n
    for size in range(1, t + 1):
        for pattern in itertools.combinations(range(n), size):
            found = False
            for i in pattern:
                keep = sorted(set(range(n)) - set(pattern) | {i})
                sub = puncture(lc, keep)
                pos = keep.index(i)
                if any(pos in dw.support and len(dw.support) <= r + 1
                       for dw in dual_low_weight(sub, r + 1)):
                    found = True
                    break
            if not found:
                return False, pattern
    return True, None


def test_sequential_t1_always_holds(ref):
    assert check_sequential(ref, 3, 1).holds


def test_sequential_t4_holds(ref):
    rep = check_sequential(ref, 3, 4)
    assert rep.holds
    assert rep.failing_pattern is None


def test_sequential_t7_outcome_recorded(ref):
    rep = check_sequential(ref, 3, 7)
    assert not rep.holds
    assert rep.failing_pattern is not None
    # the counterexample must be genuinely stuck: no member has a
    # recovery set avoiding the pattern
    from slrc.linear import recovery_sets_for
    lc = ref.as_linear_code()
    erased = set(rep.failing_pattern)
    for i in erased:
        for rs in recovery_sets_for(lc, i, 3):
            assert set(rs.helpers) & erased


def test_max_sequential_t_reference(ref):
    rep = max_sequential_t(ref, 3, cap=9)
    assert rep.t_star == 4
    assert rep.complete


def test_witnesses_count_patterns_checked(ref):
    # full levels count every pattern; the failing level counts up to and
    # including the failing pattern's lexicographic position
    n = ref.n
    for rep in (max_sequential_t(ref, 3, cap=9), check_sequential(ref, 3, 7)):
        failing = rep.failing_pattern
        assert failing == (5, 10, 11, 12, 13)
        position = next(i for i, pattern in enumerate(
            itertools.combinations(range(n), len(failing)), 1)
            if pattern == failing)
        assert rep.witnesses[len(failing)] == position == 4102
        assert rep.witnesses == {
            **{s: len(list(itertools.combinations(range(n), s)))
               for s in range(1, len(failing))},
            len(failing): position}


def test_node_budget_ends_search(ref, monkeypatch):
    import slrc.verify as verify
    full = max_sequential_t(ref, 3, cap=9)
    seen = []
    # the full search spends 1, 1, 3, 6 and 15 nodes on sizes 1-5
    for budget in (0, 2, 10):
        monkeypatch.setattr(verify, "MAX_NODES", budget)
        rep = max_sequential_t(ref, 3, cap=9)
        # t* is the largest size searched in full, at most the true t*
        assert not rep.complete and rep.failing_pattern is None
        assert rep.t_star == rep.checked_t == len(rep.witnesses) <= 4
        assert rep.witnesses == {s: full.witnesses[s]
                                 for s in range(1, rep.t_star + 1)}
        with pytest.raises(InfeasibleError, match="exceeds the budget"):
            check_sequential(ref, 3, 4)
        seen.append(rep.t_star)
    assert seen[0] == 0 and seen == sorted(seen) and seen[-1] > 0
    monkeypatch.setattr(verify, "MAX_NODES", 10_000)
    assert max_sequential_t(ref, 3, cap=9).to_dict() == full.to_dict()


def test_n42_proof_fits_a_small_node_budget(monkeypatch):
    # a search with the coordinate bound alone visits 151,551 nodes here
    import slrc.verify as verify
    code = strategies.build(4, 3, 3, 5, "affine", "vandermonde")
    assert code.n == 42
    monkeypatch.setattr(verify, "MAX_NODES", 2_000)
    rep = max_sequential_t(code, 4, cap=9)
    assert rep.complete and rep.t_star == 6
    assert rep.to_dict()["failing_pattern"] == [9, 21, 22, 25, 26, 37, 38]


def test_consistency_t_star(ref):
    t_star = max_sequential_t(ref, 3, cap=9).t_star
    assert check_sequential(ref, 3, t_star).holds
    assert not check_sequential(ref, 3, t_star + 1).holds


def test_sequential_agrees_with_brute_force_small():
    gf = GF(4)
    lc = LinearCode(gf, golden("mds"))
    for t in range(1, 4):
        fast = check_sequential(lc, 3, t).holds
        slow, _ = brute_force_sequential(lc, 3, t)
        assert fast == slow


def test_local_mds_t_star_is_delta_minus_1():
    lc = LinearCode(GF(4), golden("mds"))
    assert max_sequential_t(lc, 3, cap=5).t_star == 2


def test_zero_column_gives_t_star_zero():
    gf = GF(4)
    H = np.array([[1, 0, 1], [1, 0, 2]])
    lc = LinearCode(gf, H)
    assert max_sequential_t(lc, 3, cap=3).t_star == 0


def test_information_locality_reference(ref):
    rep = check_information_locality(ref)
    assert rep.conditions_1_4
    assert rep.failures == []
    supports = [s for s in map(ref.row_block_support, range(ref.params.b))
                if 0 in s]
    assert supports == [(0, 1, 2, 6, 7), (0, 3, 4, 8, 9)]


def test_information_locality_condition5_recorded(ref):
    # condition 5 is the sequential check at delta*t_i + 1
    p = ref.params
    assert p.t_abstract == 7
    assert check_sequential(ref, p.r, p.t_abstract).holds is False


def test_sabotaged_parity_column_fails_condition2(ref):
    H = ref.H.copy()
    H[:, 6] = 0  # zero out the first line-parity column
    bad = constructed_from_matrix(ref.field, H, strategies.shape_of(ref))
    rep = check_information_locality(bad)
    assert not rep.conditions_1_4
    assert any("condition" in f for f in rep.failures)


def test_non_mds_row_block_fails_condition2_alone(ref):
    # a zero in block 0's first row makes column 1 a multiple of the
    # block's second parity column, so the code punctured to the block
    # has distance 2; its support and parity count do not change
    H = ref.H.copy()
    H[0, 0] = 0
    bad = constructed_from_matrix(ref.field, H, strategies.shape_of(ref))
    rep = check_information_locality(bad)
    in_block0 = set(bad.row_block_support(0)) & set(range(6))
    assert in_block0 == {0, 1, 2}
    assert punctured_distances(bad, [bad.row_block_support(0)]) == [2]
    assert rep.failures == [f"coordinate {i + 1}: condition 2 fails"
                            for i in (0, 1, 2)]


def test_row_block_punctured_to_the_zero_code_fails_condition2(ref):
    # H rows 0 and 1 set to e_0 and e_1 force c_0 = c_1 = 0, so block 0,
    # whose support is {0, 1}, punctures to the zero code
    H = ref.H.copy()
    H[:2] = np.eye(2, ref.n, dtype=H.dtype)
    bad = constructed_from_matrix(ref.field, H, strategies.shape_of(ref))
    assert bad.row_block_support(0) == (0, 1)
    assert punctured_distances(bad, [(0, 1)]) == [None]
    rep = check_information_locality(bad)
    assert rep.failures == [
        "coordinate 1: condition 2 fails", "coordinate 1: condition 4 fails",
        "coordinate 2: condition 2 fails", "coordinate 2: condition 4 fails",
        "coordinate 3: condition count fails"]


def _distances_by_puncture(code, supports):
    """The oracle: min_distance of each punctured code, None for the
    zero code."""
    subs = [puncture(code, s) for s in supports]
    return [min_distance(sub) if sub.dimension else None for sub in subs]


def _admissible_and_spoiled():
    """Every admissible code, and a copy of each with one nonzero H entry,
    drawn with a fixed seed, set to zero."""
    rng = np.random.default_rng(20)
    for point in strategies.ADMISSIBLE:
        code = strategies.build(*point)
        rows, cols = np.nonzero(code.H)
        pick = rng.integers(len(rows))
        H = code.H.copy()
        H[rows[pick], cols[pick]] = 0
        yield point, code, constructed_from_matrix(
            code.field, H, strategies.shape_of(code))


def test_punctured_distances_match_the_puncture_oracle(monkeypatch):
    # per information row block, and through the whole locality check
    for point, *codes in _admissible_and_spoiled():
        for code in codes:
            p = code.params
            blocks = [s for s in map(code.row_block_support, range(p.b))
                      if min(s, default=p.k) < p.k]
            assert (punctured_distances(code, blocks)
                    == _distances_by_puncture(code, blocks)), point
            rep = check_information_locality(code)
            with monkeypatch.context() as patch:
                patch.setattr("slrc.verify.punctured_distances",
                              _distances_by_puncture)
                oracle = check_information_locality(code)
            assert (rep.conditions_1_4, rep.failures) == (
                oracle.conditions_1_4, oracle.failures), point


def test_structure_battery_reference(ref):
    rep = check_code_structure(ref)
    assert rep.all_hold
    # disjoint pair for the first information symbol
    pair = rep.statements["1"]["witness"]["example_coordinate_1"]
    assert len(pair) >= 2
    flat = [h for s in pair[:2] for h in s]
    assert len(flat) == len(set(flat))


def test_structure_witness_is_one_based(ref):
    # helpers of coordinate 1 in the report's 1-based coordinates, as
    # failing_pattern and missing are; 0-based they are [[1, 6, 7], ...]
    rep = check_code_structure(ref)
    assert rep.statements["1"]["witness"]["example_coordinate_1"] == [
        [2, 7, 8], [3, 15, 16], [4, 5, 9]]


def test_global_parity_recoverable_only_through_another_fails_statement4(ref):
    # global-parity row 0 takes row 1's line part plus line parity 9, so
    # the sum of the two rows is e9 + e14 + e15: coordinate 14's only
    # recovery set inside the parities reads the other global parity 15
    H = ref.H.copy()
    mu = ref.params.mu
    H[mu, 6:9] = H[mu + 1, 6:9]
    H[mu, 9] = 1
    bent = constructed_from_matrix(ref.field, H, strategies.shape_of(ref))
    parities = set(range(6, 16))
    inside = [rs.helpers for rs in all_recovery_sets(bent, 3)[14]
              if set(rs.helpers) <= parities]
    assert inside == [(9, 15)]
    rep = check_code_structure(bent)
    assert [rep.statements[name]["holds"] for name in "1234"] == [
        True, True, True, False]
    assert rep.statements["4"]["witness"] == {"missing": [15]}


def test_structure_specific_sets(ref):
    from slrc.linear import recovery_sets_for
    lc = ref.as_linear_code()
    assert (0, 1, 2) in {rs.helpers for rs in recovery_sets_for(lc, 6, 3)}
    assert (6, 7, 8) in {rs.helpers for rs in recovery_sets_for(lc, 14, 3)}


def _smallest_first(masks):
    # check_code_structure's order: by size, stably, so by helpers within
    return sorted(masks, key=int.bit_count)


def test_availability_reference(ref):
    table = peel_table(ref, 3)
    assert len(_max_disjoint(_smallest_first(table[0]))) >= 2
    assert len(_max_disjoint(_smallest_first(table[6]))) >= 1


def test_availability_single_set():
    lc = LinearCode(GF(4), [[1, 1, 1, 1]])
    assert _max_disjoint(_smallest_first(peel_table(lc, 3)[0])) == [0b1110]


def _masks(sets):
    return [sum(1 << h for h in rs.helpers) for rs in sets]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 11), min_size=1, max_size=4),
                max_size=14))
def test_max_disjoint_matches_set_oracle(helper_sets):
    # repeated and overlapping helper sets, in any order; the family's
    # members are nonempty and disjoint, so their masks name them
    sets = [RepairStep(repaired=12, helpers=tuple(sorted(h)), coeffs=())
            for h in helper_sets]
    assert _max_disjoint(_masks(sets)) == _masks(
        dual_oracle.max_disjoint_sets(sets))


def test_max_disjoint_matches_set_oracle_on_grid_tables():
    # on the sets in all_recovery_sets' by-size order, which the masks
    # sorted by bit count follow
    from test_acceptance import _smallest_prime_power, sweep_grid
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        code = build_parity_check(ConstructionParams(
            r=r, delta=delta, t_i=t_i, field=fld, design=design,
            mds=build_mds_parity(r, delta, fld)))
        for masks, sets in zip(peel_table(code, r),
                               all_recovery_sets(code, r)):
            assert _smallest_first(masks) == _masks(sets)
            assert _max_disjoint(_smallest_first(masks)) == _masks(
                dual_oracle.max_disjoint_sets(sets))


def test_max_disjoint_stops_at_enough_exactly_when_the_oracle_reaches_it():
    # statement 1 asks coordinates 2..k for t_i disjoint sets, no more
    from test_acceptance import _smallest_prime_power, sweep_grid
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        code = build_parity_check(ConstructionParams(
            r=r, delta=delta, t_i=t_i, field=fld, design=design,
            mds=build_mds_parity(r, delta, fld)))
        for masks, sets in zip(peel_table(code, r),
                               all_recovery_sets(code, r)):
            most = len(dual_oracle.max_disjoint_sets(sets))
            for enough in {t_i, most, most + 1} - {0}:
                family = _max_disjoint(_smallest_first(masks), enough)
                assert len(family) == min(enough, most), (r, delta, t_i)
                assert sum(family).bit_count() == sum(
                    m.bit_count() for m in family)


def test_rank_report_flags_discrepancy(ref):
    rep = rank_report(ref)
    assert rep["rank"] == 10
    assert rep["dimension"] == 6
    assert rep["stated_rank"] == 8
    assert rep["rank_matches_statement"] is False
