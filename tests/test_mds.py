
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dual_oracle import _rref, brute_force_distance, subset_words
from strategies import cauchy_mds
from slrc.errors import ConstructionError, ParameterError
from slrc.field import GF
from slrc.linear import LinearCode, min_distance
from slrc.mds import MdsLocalMatrix, build_mds_parity, verify_mds


# every prime power up to 16
FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# every (q, r, delta) with r <= 11 and delta <= 6 that the builder admits
GRID = tuple((q, r, delta) for q in FIELDS for r in range(1, 12)
             for delta in range(2, 7) if q >= r + delta - 2)
# the constructor a parametrized test calls: the library's one builder,
# or the tests' Cauchy family (strategies.cauchy_mds)
LOCAL = {"vandermonde": build_mds_parity, "cauchy": cauchy_mds}


def test_reference_vandermonde_matrix():
    gf = GF(4)
    mds = build_mds_parity(3, 3, gf)
    expect = np.array([[1, 1, 1, 1, 0],
                       [1, 2, 3, 0, 1]])
    assert (mds.matrix == expect).all()


def test_delta2_single_parity_row():
    gf = GF(4)
    mds = build_mds_parity(3, 2, gf)
    assert (mds.matrix == np.array([[1, 1, 1, 1]])).all()
    assert brute_force_distance(gf, mds.matrix) == 2


def test_cauchy_2x4_passes():
    gf = GF(4)
    mds = cauchy_mds(2, 3, gf)
    ok, witness = verify_mds(mds)
    assert ok and witness is None
    assert brute_force_distance(gf, mds.matrix) == 3


def test_reference_matrix_distance_exact():
    gf = GF(4)
    mds = build_mds_parity(3, 3, gf)
    assert brute_force_distance(gf, mds.matrix) == 3
    assert min_distance(LinearCode(gf, mds.matrix)) == 3


def test_builder_names_a_failed_checks_columns_1_based(monkeypatch):
    # the built matrix is MDS, so only a check that fails reaches the error
    import slrc.mds
    monkeypatch.setattr(slrc.mds, "verify_mds", lambda mds: (False, (0, 2)))
    with pytest.raises(ConstructionError) as info:
        build_mds_parity(3, 3, GF(4))
    assert str(info.value) == ("the local matrix for (r=3, delta=3, q=4) is "
                               "not MDS: columns 1, 3 (1-based) are "
                               "dependent")


def test_verify_mds_rejects_repeated_column():
    gf = GF(4)
    Q = np.array([[1, 1, 1], [1, 1, 3]])  # columns 0 and 1 equal
    bad = MdsLocalMatrix(r=3, delta=3, field=gf, Q=Q)
    ok, witness = verify_mds(bad)
    assert not ok
    assert witness == (0, 1)


def test_verify_mds_agrees_with_brute_force_random():
    gf = GF(4)
    rng = np.random.default_rng(11)
    for _ in range(20):
        Q = rng.integers(0, 4, size=(2, 3))
        mds = MdsLocalMatrix(r=3, delta=3, field=gf, Q=Q)
        ok, _ = verify_mds(mds)
        code_ok = (LinearCode(gf, mds.matrix).dimension == 3
                   and brute_force_distance(gf, mds.matrix) == 3)
        assert ok == code_ok


def _independent(field, H, cols):
    return len(_rref(field, H[:, list(cols)])[1]) == len(cols)


def _first_oracle_support(mds):
    """The support of the first y != 0 of weight <= delta - 1 with
    [Q | I] y = 0 in (weight, vector) order, by scalar elimination."""
    return tuple(sorted(subset_words(mds.field, mds.matrix,
                                     mds.delta - 1)[0].support))


@st.composite
def local_matrices(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    r, delta = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=(delta - 1) * r,
                            max_size=(delta - 1) * r))
    Q = np.array(entries, dtype=np.int64).reshape(delta - 1, r)
    return MdsLocalMatrix(r=r, delta=delta, field=GF(q), Q=Q)


@settings(max_examples=150, deadline=None)
@given(local_matrices())
def test_verify_mds_matches_brute_force_with_minimal_witness(mds):
    ok, witness = verify_mds(mds)
    H = mds.matrix
    assert ok == (brute_force_distance(mds.field, H) == mds.delta)
    if ok:
        assert witness is None
        return
    assert witness == _first_oracle_support(mds)
    assert 1 <= len(witness) < mds.delta
    assert not _independent(mds.field, H, witness)
    assert all(_independent(mds.field, H, sub)
               for sub in itertools.combinations(witness, len(witness) - 1))


@pytest.mark.parametrize("r,delta,q,style", [(7, 3, 9, "vandermonde"),
                                             (10, 4, 13, "cauchy")])
def test_built_points_pass_the_subset_rank_definition(r, delta, q, style):
    # every (delta-1)-subset of columns independent, checked one subset at
    # a time by scalar elimination
    gf = GF(q)
    mds = LOCAL[style](r, delta, gf)
    assert verify_mds(mds) == (True, None)
    assert all(_independent(gf, mds.matrix, cols) for cols in
               itertools.combinations(range(r + delta - 1), delta - 1))


def test_field_too_small():
    with pytest.raises(ParameterError):
        build_mds_parity(3, 3, GF(2))


@pytest.mark.parametrize("style", ["vandermonde", "cauchy"])
@pytest.mark.parametrize("r,delta,q", [
    (2, 2, 3), (3, 2, 4), (2, 3, 4), (3, 3, 4), (4, 3, 5), (3, 3, 5),
    (2, 3, 5), (4, 2, 5), (3, 4, 8), (5, 3, 8),
])
def test_built_matrices_have_exact_distance(style, r, delta, q):
    needed = r + delta - 1 if style == "cauchy" else r + delta - 2
    if q < needed:
        pytest.skip("inadmissible parameter point for this style")
    gf = GF(q)
    mds = LOCAL[style](r, delta, gf)
    assert mds.matrix.shape == (delta - 1, r + delta - 1)
    assert brute_force_distance(gf, mds.matrix) == delta


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([point for point in GRID if point[1] <= 8]))
def test_builder_is_mds_at_every_admissible_point(point):
    # never refuses, verify_mds agrees, and the distance is delta: by
    # listing every codeword where q^r is small, else by the definition
    # (every delta-1 columns independent; rank delta-1 caps it at delta)
    q, r, delta = point
    gf = GF(q)
    mds = build_mds_parity(r, delta, gf)
    H = mds.matrix
    assert H.shape == (delta - 1, r + delta - 1)
    assert verify_mds(mds) == (True, None)
    if q ** r <= 1 << 14:
        assert brute_force_distance(gf, H) == delta
    else:
        assert all(_independent(gf, H, cols) for cols in
                   itertools.combinations(range(r + delta - 1), delta - 1))


def test_builder_refuses_no_point_of_the_grid():
    # 276 points, 64 of which the plain beta^(i*j) candidate is not MDS at
    assert len(GRID) == 276
    for q, r, delta in GRID:
        assert verify_mds(build_mds_parity(r, delta, GF(q))) == (True, None)


def test_q_is_beta_power_at_every_delta_up_to_3():
    # the identity block of the extended code is already I, so every
    # delta <= 3 code, the reference and the benchmark's among them, keeps
    # Q[i][j] = beta^(i*j)
    for q, r, delta in GRID:
        if delta <= 3:
            gf = GF(q)
            beta = gf.generator
            want = [[gf.pow(beta, i * j) for j in range(r)]
                    for i in range(delta - 1)]
            assert build_mds_parity(r, delta, gf).Q.tolist() == want, (
                q, r, delta)


def test_delta4_point_where_beta_powers_are_not_mds():
    # at (r, delta, q) = (3, 4, 5) Q = beta^(i*j) has columns 1, 3, 5 of
    # [Q | I] dependent, and the builder used to refuse the point
    gf = GF(5)
    beta = gf.generator
    plain = np.array([[gf.pow(beta, i * j) for j in range(3)]
                      for i in range(3)])
    candidate = MdsLocalMatrix(r=3, delta=4, field=gf, Q=plain)
    assert verify_mds(candidate) == (False, (0, 2, 4))
    assert _first_oracle_support(candidate) == (0, 2, 4)
    mds = build_mds_parity(3, 4, gf)
    assert brute_force_distance(gf, mds.matrix) == 4
