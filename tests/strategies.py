"""Hypothesis strategies over admissible construction parameters.

`ADMISSIBLE` lists every (r, delta, t_i, q, design, local matrix) with
r in 2..4, delta in {2, 3}, q in {2, 3, 4, 5, 7, 8, 9} that the
construction accepts: q >= r + delta - 2 (r + delta - 1 for Cauchy),
t_i <= delta, and t_i = 2 for the complete-graph design.  The local
matrix is "vandermonde", the library's `build_mds_parity`, whose Q is
beta^(i*j) at every delta <= 3, or "cauchy", a second MDS family built
here: Q[i][j] = 1/(x_i - y_j) over the first r + delta - 1 field
elements in encoding order, checked by `verify_mds`.  `codes` draws one
point and builds it; each code is built once per session.  `shape_of`
gives a code's bare CodeShape, as its matrix file does.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import strategies as st

from slrc.construct import CodeShape, ConstructionParams, build_parity_check
from slrc.designs import affine_design, complete_graph_design
from slrc.field import GF
from slrc.mds import MdsLocalMatrix, build_mds_parity, verify_mds

FIELDS = (2, 3, 4, 5, 7, 8, 9)

ADMISSIBLE = tuple(
    (r, delta, t_i, q, design, style)
    for r in (2, 3, 4)
    for delta in (2, 3)
    for design in ("complete-graph", "affine")
    for t_i in ((2,) if design == "complete-graph"
                else range(2, min(delta, r + 1) + 1))
    for q in FIELDS
    for style in ("vandermonde", "cauchy")
    if q >= r + delta - 2 + (style == "cauchy"))


def cauchy_mds(r, delta, field):
    """The verified Cauchy [Q | I]: x_i = i for i < delta - 1, y_j =
    delta - 1 + j for j < r; needs q >= r + delta - 1."""
    xs, ys = range(delta - 1), range(delta - 1, delta - 1 + r)
    Q = np.array([[field.inv(field.sub(x, y)) for y in ys] for x in xs],
                 dtype=np.int64)
    mds = MdsLocalMatrix(r=r, delta=delta, field=field, Q=Q)
    assert verify_mds(mds) == (True, None), (r, delta, field.q)
    return mds


@functools.lru_cache(maxsize=None)
def build(r, delta, t_i, q, design, style):
    fld = GF(q)
    return build_parity_check(ConstructionParams(
        r=r, delta=delta, t_i=t_i, field=fld,
        design=(complete_graph_design(r) if design == "complete-graph"
                else affine_design(r, t_i)),
        mds=(cauchy_mds if style == "cauchy" else build_mds_parity)(
            r, delta, fld)))


codes = st.sampled_from(ADMISSIBLE).map(lambda point: build(*point))


def shape_of(code):
    """The CodeShape of a code's params without their design and local
    matrix: what the code's matrix file reads back as."""
    p = code.params
    return CodeShape(p.field, p.r, p.delta, p.t_i, p.k, p.b)


@st.composite
def messages(draw, code):
    """A k-symbol message over the code's field."""
    return draw(st.lists(st.integers(0, code.field.q - 1),
                         min_size=code.k, max_size=code.k))
