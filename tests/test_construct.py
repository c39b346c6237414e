import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strategies
from dual_oracle import _rref, layout_encode, syndrome
from slrc.construct import (CodeShape, ConstructionParams,
                            build_parity_check, build_w_star,
                            constructed_from_matrix, expand_m_star)
from slrc.designs import affine_design, complete_graph_design
from slrc.errors import FieldError, ParameterError, SlrcError
from slrc.field import GF
from slrc.linear import LinearCode
from slrc.mds import build_mds_parity
from slrc.reference import diff_matrices, golden, reference_code


def k4_params(delta=3, q=4):
    gf = GF(q)
    design = complete_graph_design(3)
    mds = build_mds_parity(3, delta, gf)
    return ConstructionParams(r=3, delta=delta, t_i=2, field=gf,
                              design=design, mds=mds)


def test_diff_matrices_reports_shape_then_first_entry_1_based():
    h = golden("h")
    assert diff_matrices(h, h) is None
    assert diff_matrices(h[:, :-1], h) == (0, 0, "shape (10, 15)",
                                           "shape (10, 16)")
    spoiled = h.copy()
    spoiled[3, 7] += 1
    spoiled[9, 0] += 1
    assert diff_matrices(spoiled, h) == (4, 8, int(h[3, 7]) + 1,
                                         int(h[3, 7]))


def test_m_star_reference():
    params = k4_params()
    m_star = expand_m_star(params.design, params.mds)
    assert (m_star == golden("m_star")).all()


def test_m_star_delta2_all_ones_q_equals_m():
    params = k4_params(delta=2)
    m_star = expand_m_star(params.design, params.mds)
    assert (m_star == params.design.incidence).all()


def test_m_star_block_column_structure():
    params = k4_params()
    m_star = expand_m_star(params.design, params.mds)
    d1 = params.delta - 1
    for col in range(params.k):
        nonzero_blocks = sum(
            1 for j in range(params.b)
            if m_star[j * d1:(j + 1) * d1, col].any())
        assert nonzero_blocks == params.t_i


def test_w_star_single_block_is_q():
    params = k4_params()
    assert params.w_blocks == 1
    W = build_w_star(params.w_blocks, params.mds)
    assert (W == params.mds.Q).all()


def test_w_star_delta2_all_ones():
    gf = GF(4)
    mds = build_mds_parity(3, 2, gf)
    W = build_w_star(1, mds)
    assert (W == np.ones((1, 3), dtype=int)).all()


@pytest.mark.parametrize("blocks", [0, -1])
def test_w_star_needs_a_block(blocks):
    mds = build_mds_parity(3, 3, GF(4))
    with pytest.raises(ParameterError, match="block count must be >= 1"):
        build_w_star(blocks, mds)


def test_w_star_three_blocks():
    gf = GF(8)
    mds = build_mds_parity(3, 3, gf)
    W = build_w_star(3, mds)
    assert W.shape == (3 * 2, 9)
    for t in range(3):
        assert (W[2 * t:2 * t + 2, 3 * t:3 * t + 3] == mds.Q).all()
    mask = np.ones_like(W, dtype=bool)
    for t in range(3):
        mask[2 * t:2 * t + 2, 3 * t:3 * t + 3] = False
    assert (W[mask] == 0).all()


def test_reference_h_bit_exact():
    code = reference_code()
    assert (code.H == golden("h")).all()
    assert code.n == 16 and code.k == 6
    assert code.rank == 10 and code.dimension == 6


def test_identity_blocks_positions():
    for params in [k4_params(), k4_params(delta=2),
                   ConstructionParams(r=3, delta=3, t_i=2, field=GF(4),
                                      design=affine_design(3, 2),
                                      mds=build_mds_parity(3, 3, GF(4)))]:
        code = build_parity_check(params)
        mu = params.mu
        g = params.w_blocks * (params.delta - 1)
        k = params.k
        assert (code.H[:mu, k:k + mu] == np.eye(mu, dtype=int)).all()
        assert (code.H[mu:, -g:] == np.eye(g, dtype=int)).all()
        assert (code.H[mu:, :k] == 0).all()
        assert code.n - code.H.shape[0] == k


def _block_diagonal(blocks, mds):
    """W* copied Q by Q into a zero matrix."""
    d1, r = mds.delta - 1, mds.r
    W = np.zeros((blocks * d1, blocks * r), dtype=np.int64)
    for t in range(blocks):
        W[t * d1:(t + 1) * d1, t * r:(t + 1) * r] = mds.Q
    return W


def _stacked_parity_check(params):
    """H assembled block by block as [M* I_mu 0; 0 W* I], W* padded
    with zeros to mu columns: the oracle for the three-write assembly."""
    mu, k = params.mu, params.k
    W_star = _block_diagonal(params.w_blocks, params.mds)
    g = params.n - k - mu
    top = np.hstack([expand_m_star(params.design, params.mds),
                     np.eye(mu, dtype=np.int64),
                     np.zeros((mu, g), dtype=np.int64)])
    bottom = np.hstack([np.zeros((g, k), dtype=np.int64), W_star,
                        np.zeros((g, mu - W_star.shape[1]), dtype=np.int64),
                        np.eye(g, dtype=np.int64)])
    return np.vstack([top, bottom])


def _grid_params():
    """Every constructible point with q <= 16, r <= 7, delta <= 5, both
    designs and every t_i <= delta."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        fld = GF(q)
        for r, delta, t_i in itertools.product(
                range(1, 8), range(2, 6), range(1, 6)):
            for design in (complete_graph_design, affine_design):
                try:
                    yield ConstructionParams(
                        r=r, delta=delta, t_i=t_i, field=fld,
                        design=(design(r) if design is complete_graph_design
                                else design(r, t_i)),
                        mds=build_mds_parity(r, delta, fld))
                except SlrcError:
                    pass


def test_parity_check_is_the_stacked_layout_on_the_grid():
    built = 0
    for params in _grid_params():
        H = build_parity_check(params).H
        want = _stacked_parity_check(params)
        assert H.shape == want.shape
        assert H.tobytes() == want.astype(H.dtype).tobytes()
        built += 1
    assert built == 437


def test_w_star_is_the_block_diagonal_loop():
    mds = build_mds_parity(3, 3, GF(8))
    for blocks in range(1, 5):
        want = _block_diagonal(blocks, mds)
        W = build_w_star(blocks, mds)
        assert W.dtype == want.dtype and W.tobytes() == want.tobytes()


def test_row_block_support_refuses_a_block_outside_h():
    code = reference_code()
    last = code.params.b + code.params.w_blocks - 1
    assert code.row_block_support(last) == (6, 7, 8, 14, 15)
    for j in (-1, last + 1, 100):
        with pytest.raises(ParameterError, match=f"row block {j} "):
            code.row_block_support(j)


def test_delta2_dimensions():
    code = build_parity_check(k4_params(delta=2))
    assert code.H.shape == (5, 11)
    assert code.dimension == 6


def test_row_blocks_recover_local_matrix():
    code = reference_code()
    d1 = code.params.delta - 1
    local = code.params.mds.matrix
    local_cols = {tuple(c) for c in local.T}
    for j in range(code.params.b):
        support = code.row_block_support(j)
        assert len(support) == 5
        block = code.H[j * d1:(j + 1) * d1][:, support]
        assert {tuple(c) for c in block.T} == local_cols


def test_code_params_reference():
    params = k4_params()
    assert params.n == 16 and params.k == 6
    assert params.rate == 0.375
    assert params.t_claim == 4 and params.t_abstract == 7


def test_code_params_delta2():
    params = k4_params(delta=2)
    assert params.n == params.k + params.b + params.w_blocks == 11


def test_code_params_affine_cross_check():
    params = ConstructionParams(r=3, delta=3, t_i=2, field=GF(4),
                                design=affine_design(3, 2),
                                mds=build_mds_parity(3, 3, GF(4)))
    code = build_parity_check(params)
    assert params.n == code.n


def test_param_validation():
    gf = GF(4)
    with pytest.raises(ParameterError):
        ConstructionParams(r=3, delta=3, t_i=4, field=gf,
                           design=complete_graph_design(3),
                           mds=build_mds_parity(3, 3, gf))
    with pytest.raises(ParameterError):
        ConstructionParams(r=3, delta=3, t_i=2, field=gf,
                           design=complete_graph_design(4),
                           mds=build_mds_parity(3, 3, gf))


def test_w_star_wider_than_parity_block_errors():
    from slrc.designs import Design
    gf = GF(4)
    design = Design(k=4, r=4, t_i=1, lines=((0, 1, 2, 3),))
    # the params are no layout, so they are refused before H is built
    with pytest.raises(ParameterError, match="W\\*"):
        ConstructionParams(r=4, delta=2, t_i=1, field=gf, design=design,
                           mds=build_mds_parity(4, 2, gf))


@pytest.mark.parametrize("change, match", [
    # the ids of the count cases keep their names
    pytest.param({"r": 0}, "r must be >= 1, got 0",
                 id="change0-positive integers"),
    pytest.param({"b": -1}, "b must be >= 1, got -1",
                 id="change1-positive integers"),
    pytest.param({"t_i": True}, "t_i must be an integer, got True",
                 id="change2-positive integers"),
    pytest.param({"k": 6.0}, "k must be an integer, got 6.0",
                 id="change3-positive integers"),
    pytest.param({"delta": "3"}, "delta must be an integer, got '3'",
                 id="change4-positive integers"),
    pytest.param({"delta": 1}, "delta must be >= 2, got 1",
                 id="change5-delta >= 2, got delta = 1"),
    # ceil(ceil(20/3)/3) = 3 copies of Q need 9 of the 8 line parities
    ({"k": 20}, "W\\* width 9 exceeds the 8 line-parity columns"),
    ({"b": 1}, "W\\* width 3 exceeds the 2 line-parity columns"),
])
def test_code_shape_refuses_a_shape_that_is_no_layout(change, match):
    with pytest.raises(ParameterError, match=match):
        CodeShape(GF(4), **{"r": 3, "delta": 3, "t_i": 2, "k": 6, "b": 4,
                            **change})


def test_encode_zero_message():
    code = reference_code()
    assert code.encode([0] * 6) == (0,) * 16


def test_encode_unit_message():
    code = reference_code()
    word = code.encode([1, 0, 0, 0, 0, 0])
    assert word[6] == 1 and word[7] == 1  # char 2: negation is identity


def test_encode_random_membership():
    code = reference_code()
    rng = np.random.default_rng(23)
    for _ in range(200):
        word = code.encode([int(x) for x in rng.integers(0, 4, size=6)])
        assert not any(syndrome(code.field, code.H, word))


def test_encode_rejects_bad_length():
    code = reference_code()
    with pytest.raises(ValueError):
        code.encode([0] * 5)


def test_encode_rejects_h_outside_layout():
    code = reference_code()
    shape = CodeShape(code.field, r=3, delta=3, t_i=2, k=6, b=4)
    H = code.H.copy()
    H[code.params.mu, 0] = 1     # a global-parity row reads a message symbol
    bent = constructed_from_matrix(code.field, H, shape)
    # 0..k-1 is still an information set, so the word carries m there
    word = bent.encode([1, 0, 0, 0, 0, 0])
    assert word[:6] == (1, 0, 0, 0, 0, 0)
    assert not any(syndrome(code.field, H, word))
    H[:, 6] = 0                  # line parity 7 is now free: dimension 7
    with pytest.raises(ParameterError, match="layout"):
        constructed_from_matrix(code.field, H, shape).encode([0] * 6)


def test_encode_rejects_symbol_outside_field():
    code = reference_code()
    with pytest.raises(FieldError):
        code.encode([0, 0, 4, 0, 0, 0])


@pytest.mark.parametrize("message", [
    [1.5, 0, 0, 0, 0, 0], np.array([1.0, 0, 0, 0, 0, 0]),
    ["1", 0, 0, 0, 0, 0], [True, False, False, False, False, False],
    # one bool among ints: numpy made the message [1, 0, 0, 0, 0, 0]
    [True, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, np.True_],
])
def test_encode_rejects_non_integer_symbols(message):
    # numpy would truncate 1.5 to the codeword of [1, 0, 0, 0, 0, 0]
    with pytest.raises(FieldError, match="integers"):
        reference_code().encode(message)


def test_generator_is_identity_then_parity_in_the_field_dtype():
    code = reference_code()
    G = code.generator
    assert G.shape == (code.dimension, 16) == (6, 16)
    assert G.dtype == code.field.dtype
    assert (G[:, :6] == np.eye(6)).all()
    for i in range(6):
        unit = [0] * 6
        unit[i] = 1
        assert code.encode(unit) == tuple(G[i].tolist())


@st.composite
def maybe_bent_codes(draw):
    """A code of tests/strategies.py as built, or with one entry of H
    changed to another field element."""
    code = draw(strategies.codes)
    if draw(st.booleans()):
        return code
    H = code.H.copy()
    i = draw(st.integers(0, H.shape[0] - 1))
    j = draw(st.integers(0, code.n - 1))
    H[i, j] = (int(H[i, j]) + draw(st.integers(1, code.field.q - 1))) \
        % code.field.q
    return constructed_from_matrix(code.field, H, strategies.shape_of(code))


def _leads_with_information_set(code):
    """Whether coordinates 0..k-1 are an information set: the other
    n - k columns of H are independent and span its column space."""
    H = code.H.tolist()
    rank = len(_rref(code.field, H)[1])
    rest = len(_rref(code.field, [row[code.k:] for row in H])[1])
    return rank == rest == code.n - code.k


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_encode_matches_layout_oracle(data):
    # with H bent anywhere, encode refuses exactly the codes whose
    # first k coordinates are no information set, and every word it
    # gives is a codeword carrying the message
    code = data.draw(maybe_bent_codes())
    message = data.draw(strategies.messages(code))
    if not _leads_with_information_set(code):
        with pytest.raises(ParameterError, match="layout"):
            code.encode(message)
        return
    word = code.encode(message)
    assert not any(syndrome(code.field, code.H, word))
    assert word[:code.k] == tuple(message)
    assert code.encode(np.array(message, dtype=np.int64)) == word
    assert all(type(a) is int for a in word)
    layout_word = layout_encode(code, message)
    if not any(syndrome(code.field, code.H, layout_word)):
        assert word == layout_word


def test_encode_prime_field_membership():
    fld = GF(5)
    params = ConstructionParams(r=4, delta=3, t_i=2, field=fld,
                                design=affine_design(4, 2),
                                mds=build_mds_parity(4, 3, fld))
    code = build_parity_check(params)
    rng = np.random.default_rng(29)
    for _ in range(20):
        word = code.encode([int(x) for x in rng.integers(0, 5, size=code.k)])
        assert not any(syndrome(code.field, code.H, word))


def test_constructed_from_matrix_round_trip():
    code = reference_code()
    shape = CodeShape(field=code.field, r=3, delta=3, t_i=2, k=6, b=4)
    again = constructed_from_matrix(code.field, code.H, shape,
                                    code.params.roles)
    assert (again.H == code.H).all()
    assert again.params is shape
    assert again.params.mu == 8 and again.params.s == 2


def test_code_shape_derives_the_layout():
    shape = CodeShape(field=GF(4), r=3, delta=3, t_i=2, k=6, b=4)
    assert (shape.s, shape.mu, shape.w_blocks, shape.n) == (2, 8, 1, 16)
    assert shape.roles == (("information",) * 6 + ("line_parity",) * 8
                           + ("global_parity",) * 2)
    assert (shape.t_claim, shape.t_abstract) == (4, 7)


def test_construction_params_is_the_designs_shape():
    params = k4_params()
    assert isinstance(params, CodeShape)
    assert (params.k, params.b) == (params.design.k, params.design.b)
    shape = CodeShape(field=params.field, r=3, delta=3, t_i=2, k=6, b=4)
    assert [getattr(params, a) for a in ("s", "mu", "w_blocks", "n", "roles")] \
        == [getattr(shape, a) for a in ("s", "mu", "w_blocks", "n", "roles")]


def test_constructed_code_is_a_linear_code():
    code = reference_code()
    assert isinstance(code, LinearCode)
    assert code.as_linear_code() is code
    assert code.n == code.params.n == code.H.shape[1]
    assert code.field == code.params.field


@pytest.mark.parametrize("r,delta,t_i,q,design", [
    (3, 2, 2, 4, "complete-graph"), (3, 3, 2, 4, "affine"),
    (4, 3, 2, 5, "affine"), (2, 3, 3, 3, "affine"),
])
def test_shape_n_and_roles_match_the_built_matrix(r, delta, t_i, q, design):
    fld = GF(q)
    des = (complete_graph_design(r) if design == "complete-graph"
           else affine_design(r, t_i))
    code = build_parity_check(ConstructionParams(
        r=r, delta=delta, t_i=t_i, field=fld, design=des,
        mds=build_mds_parity(r, delta, fld)))
    p = code.params
    assert code.H.shape == (p.n - p.k, p.n)
    # the roles name the identity blocks of [M* I 0; 0 W* I]
    line = [i for i, role in enumerate(p.roles) if role == "line_parity"]
    glob = [i for i, role in enumerate(p.roles) if role == "global_parity"]
    assert (code.H[:p.mu, line] == np.eye(p.mu)).all()
    assert (code.H[p.mu:, glob] == np.eye(len(glob))).all()


def test_systematic_check_builds_no_identity():
    # K51 has k = 1275: a float64 I_k would take 12.4 MB, more than the
    # whole code, generator and row reduction included
    fld = GF(53)
    code = build_parity_check(ConstructionParams(
        r=50, delta=3, t_i=2, field=fld, design=complete_graph_design(50),
        mds=build_mds_parity(50, 3, fld)))
    tracemalloc.start()
    try:
        again = constructed_from_matrix(fld, code.H,
                                        strategies.shape_of(code))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again._systematic
    assert peak < code.k * code.k * 8
