
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dual_oracle import _rref, brute_force_distance
from slrc.errors import ParameterError
from slrc.field import GF
from slrc.linear import LinearCode, min_distance
from slrc.mds import MdsLocalMatrix, build_mds_parity, verify_mds


def test_reference_vandermonde_matrix():
    gf = GF(4)
    mds = build_mds_parity(3, 3, gf, style="vandermonde")
    expect = np.array([[1, 1, 1, 1, 0],
                       [1, 2, 3, 0, 1]])
    assert (mds.matrix == expect).all()


def test_delta2_single_parity_row():
    gf = GF(4)
    mds = build_mds_parity(3, 2, gf, style="vandermonde")
    assert (mds.matrix == np.array([[1, 1, 1, 1]])).all()
    assert brute_force_distance(gf, mds.matrix) == 2


def test_cauchy_2x4_passes():
    gf = GF(4)
    mds = build_mds_parity(2, 3, gf, style="cauchy")
    ok, witness = verify_mds(mds)
    assert ok and witness is None
    assert brute_force_distance(gf, mds.matrix) == 3


def test_reference_matrix_distance_exact():
    gf = GF(4)
    mds = build_mds_parity(3, 3, gf)
    assert brute_force_distance(gf, mds.matrix) == 3
    assert min_distance(LinearCode(gf, mds.matrix)) == 3


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
    mds = build_mds_parity(r, delta, gf, style=style)
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
    mds = build_mds_parity(r, delta, gf, style=style)
    assert mds.matrix.shape == (delta - 1, r + delta - 1)
    assert brute_force_distance(gf, mds.matrix) == delta
