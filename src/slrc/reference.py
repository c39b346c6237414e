"""The worked reference instance: a [16, 6] code over GF(4).

Built from r = 3, delta = 3, t_i = 2, the K4 complete-graph design and
the local MDS matrix Q[i][j] = beta^(i*j), under the documented conventions
(GF(4) defined by x^2 + x + 1, primitive element encoded as 2,
lexicographic edge order).  Golden copies of the four intermediate
matrices live in data/ so the rebuild can be diffed entry by entry.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .construct import ConstructionParams, build_parity_check, expand_m_star
from .designs import complete_graph_design
from .field import GF
from .mds import build_mds_parity

R, DELTA, T_I, Q = 3, 3, 2, 4


def golden(name):
    """Load a golden matrix from the packaged data files."""
    text = resources.files("slrc.data").joinpath(f"reference_{name}.json").read_text()
    return np.array(json.loads(text)["matrix"], dtype=np.int64)


def reference_code():
    """Construct the [16, 6] instance from scratch."""
    fld = GF(Q)
    design = complete_graph_design(R)
    mds = build_mds_parity(R, DELTA, fld)
    params = ConstructionParams(r=R, delta=DELTA, t_i=T_I, field=fld,
                                design=design, mds=mds)
    return build_parity_check(params)


def diff_matrices(actual, expected):
    """First mismatched entry as (row, col, actual, expected), else None.
    Rows and columns are reported 1-based."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return (0, 0, f"shape {actual.shape}", f"shape {expected.shape}")
    mism = np.argwhere(actual != expected)
    if len(mism) == 0:
        return None
    i, j = (int(x) for x in mism[0])
    return (i + 1, j + 1, int(actual[i, j]), int(expected[i, j]))


def rebuild_and_diff(code):
    """Diff all four matrices of `code`, a `reference_code()` rebuild,
    against their golden copies.  Returns {name: diff-or-None} in build
    order."""
    design, mds = code.params.design, code.params.mds
    return {
        "design": diff_matrices(design.incidence, golden("design")),
        "mds": diff_matrices(mds.matrix, golden("mds")),
        "m_star": diff_matrices(expand_m_star(design, mds), golden("m_star")),
        "h": diff_matrices(code.H, golden("h")),
    }
