import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dual_oracle
from slrc import linear
from slrc.construct import ConstructionParams, build_parity_check
from slrc.designs import complete_graph_design
from slrc.errors import FieldError, InfeasibleError
from slrc.field import GF
from slrc.linear import (LinearCode, all_recovery_sets, dual_low_weight,
                         min_distance, nullspace, peel_table, puncture,
                         recovery_sets_for, recovery_table, rref)
from slrc.mds import build_mds_parity
from slrc.reference import golden, reference_code


@pytest.fixture(scope="module")
def ref():
    return reference_code()


@pytest.fixture(scope="module")
def ref_lc(ref):
    return ref.as_linear_code()


def test_rank_of_reference_h(ref_lc):
    assert ref_lc.rank == 10
    assert ref_lc.dimension == 6


def test_rank_identity_and_zero():
    gf = GF(4)
    assert len(rref(gf, np.eye(5, dtype=int))[1]) == 5
    assert len(rref(gf, np.zeros((3, 4), dtype=int))[1]) == 0


def test_rank_agrees_with_gf2_gaussian_oracle():
    # independent mod-2 elimination for binary matrices
    rng = np.random.default_rng(3)
    gf = GF(2)
    for _ in range(20):
        A = rng.integers(0, 2, size=(4, 6))
        rows = [int("".join(map(str, row)), 2) for row in A]
        rank = 0
        for bit in reversed(range(6)):
            piv = next((i for i in range(rank, len(rows))
                        if rows[i] >> bit & 1), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i] >> bit & 1:
                    rows[i] ^= rows[rank]
            rank += 1
        assert len(rref(gf, A)[1]) == rank


def test_nullspace_vectors_annihilate():
    gf = GF(4)
    rng = np.random.default_rng(5)
    A = rng.integers(0, 4, size=(3, 7))
    N = nullspace(gf, A)
    assert N.shape[0] == 7 - len(rref(gf, A)[1])
    assert N.tolist() == dual_oracle._nullspace(gf, A, 7)
    for v in N.tolist():
        for row in A.tolist():
            acc = 0
            for a, x in zip(row, v):
                acc = gf.add(acc, gf.mul(a, x))
            assert acc == 0


def test_min_distance_local_mds(ref):
    lc = LinearCode(GF(4), golden("mds"))
    assert min_distance(lc) == 3


def test_min_distance_single_parity():
    gf = GF(4)
    lc = LinearCode(gf, [[1, 2]])
    assert min_distance(lc) == 2


def test_min_distance_subset_route_agrees():
    # the distance is also the size of the smallest dependent column set
    # of H
    gf = GF(4)
    rng = np.random.default_rng(9)
    H = rng.integers(0, 4, size=(3, 8))
    lc = LinearCode(gf, H)
    exact = min_distance(lc)
    by_subsets = None
    for w in range(1, lc.n + 1):
        found = False
        for cols in itertools.combinations(range(lc.n), w):
            if len(rref(gf, lc.H[:, cols])[1]) < w:
                found = True
                break
        if found:
            by_subsets = w
            break
    assert exact == by_subsets


@st.composite
def oracle_sized_matrices(draw):
    """Random H over GF(2, 3, 4, 5, 8), mostly with few enough codewords
    for the brute-force distance oracle."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = draw(st.integers(1, 10))
    rows = draw(st.integers(max(1, n - int(math.log(5_000, q))), n + 1))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * n,
                            max_size=rows * n))
    return GF(q), np.array(entries, dtype=np.int64).reshape(rows, n)


@settings(max_examples=200, deadline=None)
@given(oracle_sized_matrices())
def test_linear_algebra_matches_scalar_oracles(field_and_h):
    field, H = field_and_h
    n = H.shape[1]
    basis, pivots = dual_oracle._rref(field, H)
    R, got = rref(field, H)
    assert got == pivots
    assert R[:len(got)].tolist() == basis and not R[len(got):].any()
    assert nullspace(field, H).tolist() == dual_oracle._nullspace(field, H,
                                                                  n)
    lc = LinearCode(field, H)
    if lc.dimension == 0:
        with pytest.raises(ValueError, match="zero code"):
            min_distance(lc)
    elif field.q ** lc.dimension <= 5_000:
        assert min_distance(lc) == dual_oracle.brute_force_distance(field, H)


def test_linear_algebra_matches_scalar_oracles_gf1024():
    # the largest field, with two-byte entries
    field = GF(1024)
    rng = np.random.default_rng(1024)
    H = rng.integers(0, 1024, size=(5, 9))
    H[3] = field.vadd(H[0], field.vmul(7, H[1]))     # rank 4
    basis, pivots = dual_oracle._rref(field, H)
    R, got = rref(field, H)
    assert R[:len(got)].tolist() == basis
    assert nullspace(field, H).tolist() == dual_oracle._nullspace(field, H,
                                                                  9)
    lc = LinearCode(field, H[[0, 1, 2, 4], :5])       # 1024 codewords
    assert lc.dimension == 1
    assert min_distance(lc) == dual_oracle.brute_force_distance(field,
                                                                lc.H)


def test_min_distance_blocks_and_limits(ref_lc, monkeypatch):
    import slrc.linear as linear
    sub = puncture(ref_lc, [0, 1, 2, 6, 7])          # [5, 3, 3], 64 words
    # blocks of a few messages each give the same answer: the budget is
    # read at call time, so the 63 messages take several products
    monkeypatch.setattr(linear, "DUAL_BYTE_BUDGET", 4 * 3 * 5 * 8 * 5)
    products, codewords = [], linear._codewords
    monkeypatch.setattr(linear, "_codewords",
                        lambda *args: products.append(1) or codewords(*args))
    assert min_distance(sub) == 3
    assert len(products) > 1
    monkeypatch.setattr(linear, "ENUM_LIMIT", 4 ** 3)
    assert min_distance(sub) == 3
    monkeypatch.setattr(linear, "ENUM_LIMIT", 4 ** 3 - 1)
    with pytest.raises(InfeasibleError, match="too many"):
        min_distance(sub)
    with pytest.raises(ValueError, match="zero code"):
        min_distance(LinearCode(GF(4), np.eye(3, dtype=np.int64)))


def test_puncture_identity(ref_lc):
    p = puncture(ref_lc, range(ref_lc.n))
    assert p.dimension == ref_lc.dimension


def test_puncture_reference_supports(ref_lc):
    # both row-block supports through the first coordinate give [5, 3, 3]
    for keep in ([0, 1, 2, 6, 7], [0, 3, 4, 8, 9]):
        sub = puncture(ref_lc, keep)
        assert sub.n == 5
        assert sub.dimension == 3
        assert min_distance(sub) == 3


def test_dual_low_weight_reference(ref_lc):
    words = dual_low_weight(ref_lc, 4)
    supports = {dw.support for dw in words}
    assert frozenset({6, 7, 8, 14}) in supports  # bottom parity row
    assert all(dw.support for dw in words)       # zero vector excluded
    assert all(len(dw.support) <= 4 for dw in words)


def test_dual_low_weight_matches_full_enumeration():
    gf = GF(4)
    lc = LinearCode(gf, golden("mds"))
    words = dual_low_weight(lc, 3)
    # oracle: enumerate all 4^2 row combinations directly
    seen = set()
    for c1, c2 in itertools.product(range(4), repeat=2):
        v = [gf.add(gf.mul(c1, int(a)), gf.mul(c2, int(b)))
             for a, b in zip(*golden("mds"))]
        wt = sum(1 for x in v if x)
        if 0 < wt <= 3:
            lead = next(x for x in v if x)
            inv = gf.inv(lead)
            seen.add(tuple(gf.mul(inv, x) for x in v))
    assert {dw.vector for dw in words} == seen


def test_dual_low_weight_subset_route_agrees(ref_lc):
    # both brute-force oracles agree with the enumerator on the reference
    # code, list for list
    words = dual_low_weight(LinearCode(ref_lc.field, ref_lc.H), 4)
    assert len(words) == 33
    assert words == dual_oracle.rowspace_words(ref_lc.field, ref_lc.H, 4)
    assert words == dual_oracle.subset_words(ref_lc.field, ref_lc.generator, 4)


@st.composite
def small_parity_checks(draw):
    # up to n = 14 the search runs in one pass unless its pass limit is
    # patched; GF(9) is characteristic 3 beyond the prime field
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 14))
    # the row-space oracle lists q^rows vectors
    rows = draw(st.integers(1, int(math.log(20_000, q))))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * n,
                            max_size=rows * n))
    return GF(q), np.array(entries, dtype=np.int64).reshape(rows, n)


@settings(max_examples=150, deadline=None)
@given(small_parity_checks(), st.integers(1, 5))
def test_dual_low_weight_matches_rowspace_oracle(field_and_h, wmax):
    field, H = field_and_h
    words = dual_low_weight(LinearCode(field, H), wmax)
    assert words == dual_oracle.rowspace_words(field, H, wmax)


def _first_information_set(field, H):
    """The columns left when H's columns are picked greedily from the
    right, each kept when it raises the rank of those kept: the
    lexicographically first information set of the code."""
    kept = []
    for j in reversed(range(H.shape[1])):
        cols = kept + [j]
        if len(dual_oracle._rref(field, H[:, cols].tolist())[1]) == len(cols):
            kept = cols
    return [j for j in range(H.shape[1]) if j not in kept]


@settings(max_examples=150, deadline=None)
@given(small_parity_checks(), st.data())
def test_encode_carries_the_message_on_the_first_information_set(
        field_and_h, data):
    field, H = field_and_h
    code = LinearCode(field, H)
    info = _first_information_set(field, H)
    assert np.flatnonzero(code.information_set).tolist() == info
    G = code.generator
    assert G.shape == (len(info), H.shape[1]) and G.dtype == field.dtype
    assert (G[:, info] == np.eye(len(info))).all()
    message = data.draw(st.lists(st.integers(0, field.q - 1),
                                 min_size=len(info), max_size=len(info)))
    word = code.encode(np.array(message, dtype=np.int64))
    assert not any(dual_oracle.syndrome(field, H, word))
    assert [word[j] for j in info] == message


def test_encode_accepts_an_empty_message():
    # np.asarray([]) is float64, which is no symbol dtype
    zero = LinearCode(GF(4), np.eye(3, dtype=np.int64))
    assert zero.dimension == 0
    assert zero.encode([]) == zero.encode(np.zeros(0, np.int64)) == (0, 0, 0)
    # no columns either: a 0 x 0 generator
    for q in (4, 3):
        assert LinearCode(GF(q), np.zeros((0, 0), np.int64)).encode([]) == ()
    with pytest.raises(FieldError, match="must be integers"):
        LinearCode(GF(4), [[1, 1]]).encode([1.5])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from((2, 3, 4, 5, 8, 9, 27, 256, 1024)),
       k=st.integers(0, 12), checks=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), bent=st.booleans())
# k(p - 1) = 260 > 255: the digit slots are two bytes wide
@example(q=3, k=130, checks=20, seed=1, bent=False)
@example(q=1024, k=0, checks=3, seed=2, bent=False)
@example(q=9, k=5, checks=4, seed=3, bent=True)
def test_encode_is_the_scalar_product_m_g(q, k, checks, seed, bent):
    # a random H of `checks` rows over k + checks columns; bent puts e_0
    # in its row space, so coordinate 0 is 0 on every codeword and the
    # first information set does not start at 0
    field, n = GF(q), k + checks
    rng = np.random.default_rng(seed)
    H = rng.integers(0, q, size=(checks, n))
    if bent:
        H[0] = 0
        H[0, 0] = 1
    code = LinearCode(field, H)
    if bent:
        assert not code.generator[:, 0].any()
    for message in rng.integers(0, q, size=(4, code.dimension)).tolist():
        # column c of G dotted with m, one scalar product at a time
        word = dual_oracle.syndrome(field, code.generator.T, message)
        assert code.encode(message) == word
        assert code.encode(np.array(message, dtype=np.uint16)) == word


def test_parity_check_and_generator_are_read_only(ref_lc):
    for array in (ref_lc.H, ref_lc.generator):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def _one_key(calls):
    """A stand-in for `linear._residual_keys` that gives every residual
    one key, so the last level eliminates every pair."""
    def keys(field, v):
        calls.append(len(v))
        return np.full(len(v), 7, dtype=np.int64)
    return keys


def test_dual_low_weight_unfiltered_last_level_changes_nothing(ref_lc,
                                                               monkeypatch):
    import slrc.linear as linear
    calls = []
    monkeypatch.setattr(linear, "_residual_keys", _one_key(calls))
    words = dual_low_weight(LinearCode(ref_lc.field, ref_lc.H), 4)
    assert calls
    assert words == dual_oracle.rowspace_words(ref_lc.field, ref_lc.H, 4)


@settings(max_examples=100, deadline=None)
@given(small_parity_checks(), st.integers(1, 5))
def test_dual_low_weight_unfiltered_last_level_matches_rowspace_oracle(
        field_and_h, wmax):
    import slrc.linear as linear
    field, H = field_and_h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_residual_keys", _one_key([]))
        words = dual_low_weight(LinearCode(field, H), wmax)
    assert words == dual_oracle.rowspace_words(field, H, wmax)


# pass limits that split small codes into several passes: the largest
# level of first column 0, which sized every pass before passes were
# sized in bytes, and one first column a pass
SPLIT_PASS_LIMITS = {"column_0": lambda cap, per_pair: cap,
                     "one_column": lambda cap, per_pair: 0}


@pytest.mark.parametrize("rule", SPLIT_PASS_LIMITS)
@settings(max_examples=100, deadline=None)
@given(small_parity_checks(), st.integers(1, 5), st.booleans())
def test_dual_low_weight_split_passes_match_rowspace_oracle(
        rule, field_and_h, wmax, unfiltered):
    # passes that start past column 0, with and without the last level's
    # residual-key filter
    import slrc.linear as linear
    field, H = field_and_h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_pass_limit", SPLIT_PASS_LIMITS[rule])
        if unfiltered:
            mp.setattr(linear, "_residual_keys", _one_key([]))
        words = dual_low_weight(LinearCode(field, H), wmax)
    assert words == dual_oracle.rowspace_words(field, H, wmax)


def _sweep_code(n):
    """The linear code of the criterion-09 sweep point of length n, and
    its search weight r + 1."""
    from test_acceptance import _smallest_prime_power, sweep_grid
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        params = ConstructionParams(r=r, delta=delta, t_i=t_i, field=fld,
                                    design=design,
                                    mds=build_mds_parity(r, delta, fld))
        lc = build_parity_check(params).as_linear_code()
        if lc.n == n:
            return lc, r + 1
    raise LookupError(n)


def _passes(lc, wmax):
    """The (start, stop) first-column passes of one search, and its words."""
    import slrc.linear as linear
    passes = []
    search = linear._search_from

    def spy(field, Gt, wmax, start, stop):
        passes.append((start, stop))
        return search(field, Gt, wmax, start, stop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_search_from", spy)
        words = dual_low_weight(LinearCode(lc.field, lc.H), wmax)
    return passes, words


# the passes of the reference code (n = 16) and of sweep points: the two
# codes of the `tstar` benchmark (n = 18 and 29), n = 25, which takes
# three, and n = 34, whose cap alone fills a sixteenth of the budget, so
# it keeps the 9 passes of the cap rule
PASS_PINS = {
    16: [(0, 16)],
    18: [(0, 18)],
    29: [(0, 29)],
    25: [(0, 2), (2, 6), (6, 25)],
    34: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (7, 10), (10, 20),
         (20, 34)],
}


@pytest.mark.parametrize("n", PASS_PINS)
def test_dual_low_weight_passes_are_maximal_within_the_byte_limit(
        n, ref_lc, monkeypatch):
    # each pass takes as many consecutive first columns as keep their
    # summed pair count C(n - 1 - f, w - 1) at every level w within
    # max(cap, DUAL_BYTE_BUDGET // 16 // per_pair)
    import slrc.linear as linear
    lc, wmax = (ref_lc, 4) if n == 16 else _sweep_code(n)
    passes, words = _passes(lc, wmax)
    assert passes == PASS_PINS[n]
    k = lc.dimension
    per_pair = 6 * (k + 1 + wmax) * lc.field.dtype.itemsize + 6 * 8
    cap = max(math.comb(n - 1, w) for w in range(wmax))
    limit = max(cap, linear.DUAL_BYTE_BUDGET // 16 // per_pair)

    def pairs(group):
        return [sum(math.comb(n - 1 - f, w - 1) for f in group)
                for w in range(1, wmax + 1)]
    assert [a for a, _ in passes] == [0] + [b for _, b in passes[:-1]]
    assert passes[-1][1] == n
    for start, stop in passes:
        assert max(pairs(range(start, stop))) <= limit
        assert max(pairs(range(start, stop))) * per_pair <= max(
            cap * per_pair, linear.DUAL_BYTE_BUDGET // 16)
        if stop < n:
            assert max(pairs(range(start, stop + 1))) > limit
    # the words are those of the passes sized by first column 0
    monkeypatch.setattr(linear, "_pass_limit", SPLIT_PASS_LIMITS["column_0"])
    split, before = _passes(lc, wmax)
    assert words == before
    assert len(split) >= len(passes)


# (q, row length): 1024^7 and 9^20 exceed 2^63, so the keys of the
# last two are renumbered part way
@pytest.mark.parametrize("q,width", [(2, 6), (4, 6), (7, 6), (9, 6),
                                     (1024, 6), (1024, 20), (9, 40)])
def test_residual_keys_equal_exactly_on_multiples(q, width):
    import slrc.linear as linear
    field = GF(q)
    rng = np.random.default_rng(q + width)
    # multiples of 30 rows, some zero, some with leading zeros and some
    # equal but in their second digit
    base = rng.integers(0, q, size=(30, width))
    base[:3] = 0
    base[3:10, :width // 2] = 0
    base[10:20, 0] = 1
    base[10:20, 2:] = base[10, 2:]
    v = field.vmul(rng.integers(1, q, size=(300, 1)),
                   base[rng.integers(0, 30, size=300)].astype(field.dtype))
    keys = linear._residual_keys(field, v)

    def scaled(row):
        lead = next((x for x in row if x), 1)
        return tuple(field.mul(field.inv(lead), x) for x in row)
    rows = [scaled(row) for row in v.tolist()]
    assert keys.dtype == np.int64
    for i in range(len(v)):
        assert ((keys == keys[i]) == [row == rows[i] for row in rows]).all()


# keys with many ties, and keys near 2^63 that the join renumbers first
JOIN_KEYS = st.sampled_from([0, 1, 2, 7, (1 << 62) + 3, (1 << 63) - 1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), JOIN_KEYS, st.booleans()),
                max_size=40))
def test_join_pairs_matches_all_pairs(entries):
    # every pair (a, b), a < b, of one parent and one key with a owned,
    # ordered by a, then b; parents in any order
    import slrc.linear as linear
    parent = np.array([p for p, _, _ in entries], dtype=np.intp)
    key = np.array([k for _, k, _ in entries], dtype=np.int64)
    own = np.array([o for _, _, o in entries], dtype=bool)
    a, b = linear._join_pairs(parent, key, own)
    want = [(i, j) for i, j in itertools.combinations(range(len(entries)), 2)
            if own[i] and parent[i] == parent[j] and key[i] == key[j]]
    assert list(zip(a.tolist(), b.tolist())) == want


def test_dual_low_weight_matches_oracles_on_sweep_points():
    from test_acceptance import _smallest_prime_power, sweep_grid
    checked = 0
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        params = ConstructionParams(r=r, delta=delta, t_i=t_i, field=fld,
                                    design=design,
                                    mds=build_mds_parity(r, delta, fld))
        lc = build_parity_check(params).as_linear_code()
        if lc.n > 23:
            continue
        if fld.q ** lc.rank <= 1 << 23:
            expect = dual_oracle.rowspace_words(fld, lc.H, r + 1)
        else:
            expect = dual_oracle.subset_words(fld, lc.generator, r + 1)
        assert dual_low_weight(lc, r + 1) == expect, (r, delta, t_i, lc.n)
        checked += 1
    assert checked == 11


# (word count, SHA-256 of the sorted word array) of the sweep points with
# n > 23, which the brute-force oracles do not reach in test time
SWEEP_DUAL_PINS = {
    25: (10, "0afccb2694265a0fca03304bd6b2028b"
             "914bed9307aff77656a3ad551ec40215"),
    29: (54, "74bc7287a95cf1ebc3368218d93eafc7"
             "47e1794b8449e50278f3bf7282de739f"),
    34: (54, "302c968e17c11460b86ee94b65f79f39"
             "1dea0ee6a9b76db0e2ee1a444028ea0a"),
    42: (78, "2f0bbd5ac5e05f0b95af578ae7a94de9"
             "3b4f3a8b611f7fa72c2b6db8d21958e0"),
}


def dual_pin(lc, wmax):
    """(word count, SHA-256 of the cached sorted word array)."""
    words = dual_low_weight(lc, wmax)
    arr = np.ascontiguousarray(lc._dual_cache[wmax])
    return len(words), hashlib.sha256(arr.tobytes()).hexdigest()


def test_dual_low_weight_pinned_on_sweep_points_beyond_oracles():
    from test_acceptance import _smallest_prime_power, sweep_grid
    pins = {}
    for r, delta, t_i, design in sweep_grid():
        fld = GF(_smallest_prime_power(r + delta - 2))
        params = ConstructionParams(r=r, delta=delta, t_i=t_i, field=fld,
                                    design=design,
                                    mds=build_mds_parity(r, delta, fld))
        lc = build_parity_check(params).as_linear_code()
        if lc.n > 23:
            pins[lc.n] = dual_pin(lc, r + 1)
    assert pins == SWEEP_DUAL_PINS


# the same pins for the r = 5 points of the K6 edge design (t_i = 2)
# that fit the budget, keyed by (delta, q)
R5_DUAL_PINS = {
    (3, 7): (49, "4446b757fb9a8ff1bfdb58ac0d18bafe"
                 "f02e42500f4c27188e263be090fcb104"),
    (2, 5): (7, "98dc9ad80cb67186c6d0391a82e04889"
                "f8bce9b7ad338f13a7c1f572df95a3a7"),
}


@pytest.mark.parametrize("delta,q", R5_DUAL_PINS)
def test_dual_low_weight_pinned_on_r5_points(delta, q):
    fld = GF(q)
    params = ConstructionParams(r=5, delta=delta, t_i=2, field=fld,
                                design=complete_graph_design(5),
                                mds=build_mds_parity(5, delta, fld))
    lc = build_parity_check(params)
    assert dual_pin(lc, 6) == R5_DUAL_PINS[delta, q]


@pytest.mark.parametrize("q", [1024, 729])
def test_dual_low_weight_large_field(q):
    # two-byte entries, in characteristic 2 and 3
    field = GF(q)
    rng = np.random.default_rng(q)
    H = rng.integers(1, q, size=(4, 7))
    H[0, 2:] = 0        # a dual word of weight 2
    H[1, :2] = 0        # and one of weight 3
    H[1, 5:] = 0
    lc = LinearCode(field, H)
    words = dual_low_weight(lc, 3)
    assert [len(d.support) for d in words] == [2, 3]
    assert words == dual_oracle.subset_words(field, lc.generator, 3)


def test_dual_low_weight_cache_filters_larger_wmax(ref_lc, monkeypatch):
    import slrc.linear as linear
    lc = LinearCode(ref_lc.field, ref_lc.H)
    four = dual_low_weight(lc, 4)

    def no_search(*args):
        raise AssertionError("a cached wmax must not search again")
    monkeypatch.setattr(linear, "_low_weight_dual_words", no_search)
    three = dual_low_weight(lc, 3)
    assert three == [d for d in four if len(d.support) <= 3]
    assert dual_low_weight(lc, 3) == three
    assert dual_low_weight(lc, 4) == four


def test_dual_low_weight_refuses_huge_null_space_expansion(monkeypatch):
    # every vector is a dual word of the zero code: with a 1 MB budget,
    # 1024 combinations per dependent set of two columns fit and 1024^2
    # per dependent set of three columns do not
    import slrc.linear as linear
    monkeypatch.setattr(linear, "DUAL_BYTE_BUDGET", 1 << 20)
    lc = LinearCode(GF(1024), np.eye(4, dtype=np.int64))
    assert len(dual_low_weight(lc, 2)) == 4 + 6 * 1023
    with pytest.raises(InfeasibleError, match="null-space combinations"):
        dual_low_weight(lc, 3)


def test_dual_low_weight_byte_budget(ref_lc, monkeypatch):
    import slrc.linear as linear
    monkeypatch.setattr(linear, "DUAL_BYTE_BUDGET", 10_000)
    with pytest.raises(InfeasibleError, match="byte budget"):
        dual_low_weight(LinearCode(ref_lc.field, ref_lc.H), 4)


def test_dual_low_weight_refuses_70_columns_at_weight_26():
    # the largest level has C(69, 25) ~ 4.2e18 pairs, whose byte estimate
    # exceeds 2^63: the check must not wrap round to a small number
    H = np.hstack([np.eye(68, dtype=np.int64), np.ones((68, 2), np.int64)])
    lc = LinearCode(GF(2), H)
    with pytest.raises(InfeasibleError, match="byte budget"):
        dual_low_weight(lc, 26)


def _entry_estimate(code, r):
    weight = np.count_nonzero(linear._dual_words(code, r + 1), axis=1)
    return linear.entry_bytes(int(weight.sum()), int(weight.max()),
                              code.field.dtype.itemsize)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_recovery_entry_estimate_bounds_their_peak(r):
    # 132, 3,213 and 73,152 entries; the fixed cost of a few small arrays
    # is the slack at r = 3
    code = reference_code()
    need = _entry_estimate(code, r)
    recovery_table.cache_clear()
    tracemalloc.start()
    try:
        recovery_table(code, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        recovery_table.cache_clear()
    assert peak <= need + 32_768, (peak, need)


def test_recovery_sets_over_the_budget_are_refused_before_their_arrays(
        monkeypatch):
    # r = 9 gives 622,650 entries of words of weight <= 10 on the reference
    # code, about 125 MB by the estimate; r = 8's 237,330 fit
    code = reference_code()
    assert _entry_estimate(code, 8) <= linear.DUAL_BYTE_BUDGET
    assert _entry_estimate(code, 9) > linear.DUAL_BYTE_BUDGET
    sort = np.lexsort

    def no_sort(keys):
        raise AssertionError("entries sorted past the budget")
    monkeypatch.setattr(np, "lexsort", no_sort)
    for table in (peel_table, recovery_table):
        with pytest.raises(InfeasibleError,
                           match="622650 recovery sets of size <= 9 exceed"):
            table(code, 9)
    monkeypatch.setattr(np, "lexsort", sort)
    # a smaller budget refuses a table that fits the default one
    monkeypatch.setattr(linear, "DUAL_BYTE_BUDGET",
                        _entry_estimate(code, 3) - 1)
    with pytest.raises(InfeasibleError, match="132 recovery sets"):
        peel_table(code, 3)
    monkeypatch.setattr(linear, "DUAL_BYTE_BUDGET",
                        _entry_estimate(code, 3))
    assert sum(map(len, peel_table(code, 3))) == 132


def _record_estimate(code, r):
    table = recovery_table(code, r)
    return linear.record_bytes(len(table.coord), len(table.helpers), code.n,
                               code.field.q)


@pytest.mark.parametrize("r", [3, 5, 6])
def test_repair_record_estimate_bounds_their_peak(r):
    # 132, 3,213 and 17,192 records and their table, built after the dual
    # words are cached
    code = reference_code()
    need = _record_estimate(code, r)
    recovery_table.cache_clear()
    tracemalloc.start()
    try:
        all_recovery_sets(code, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        recovery_table.cache_clear()
    assert peak <= need, (peak, need)


def test_repair_records_over_the_budget_are_refused_before_they_exist(
        monkeypatch):
    # r = 8 gives the reference code 237,330 recovery sets, whose arrays
    # fit the budget but whose records, about 170 MB by the estimate, do
    # not (they took 5.1 s and a 149 MB peak); r = 7's 73,152 fit.  Only
    # all_recovery_sets makes every record: a row, a plan or a traced
    # campaign makes those it returns
    code = reference_code()
    assert _record_estimate(code, 7) <= linear.DUAL_BYTE_BUDGET
    assert _record_estimate(code, 8) > linear.DUAL_BYTE_BUDGET

    def no_record(*args, **kwargs):
        raise AssertionError("a record was built past the budget")
    monkeypatch.setattr(linear, "RepairStep", no_record)
    with pytest.raises(InfeasibleError,
                       match="237330 repair records of size <= 8 exceed"):
        all_recovery_sets(code, 8)
    assert sum(map(len, peel_table(code, 8))) == 237330


def test_recovery_sets_for_first_coordinate(ref_lc):
    sets = {rs.helpers for rs in recovery_sets_for(ref_lc, 0, 3)}
    for expect in [(1, 2, 6), (1, 2, 7), (3, 4, 8), (3, 4, 9)]:
        assert expect in sets


def test_recovery_set_r15(ref_lc):
    sets = {rs.helpers for rs in recovery_sets_for(ref_lc, 14, 3)}
    assert (6, 7, 8) in sets


def test_recovery_single_parity_code():
    gf = GF(4)
    lc = LinearCode(gf, [[1, 1, 1, 1]])
    sets = recovery_sets_for(lc, 0, 3)
    assert len(sets) == 1
    assert sets[0].helpers == (1, 2, 3)


def test_recovery_sets_reconstruct_random_codewords(ref, ref_lc):
    rng = np.random.default_rng(17)
    gf = ref.field
    for _ in range(50):
        word = ref.encode([int(x) for x in rng.integers(0, 4, size=6)])
        i = int(rng.integers(0, ref.n))
        for rs in recovery_sets_for(ref_lc, i, 3)[:4]:
            val = 0
            for h, a in zip(rs.helpers, rs.coeffs):
                val = gf.add(val, gf.mul(a, word[h]))
            assert val == word[i]


def test_infeasible_raises():
    gf = GF(16)
    rng = np.random.default_rng(1)
    lc = LinearCode(gf, rng.integers(0, 16, size=(30, 60)))
    with pytest.raises(InfeasibleError):
        min_distance(lc)
