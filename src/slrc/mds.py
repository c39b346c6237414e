"""Local MDS parity-check matrices [Q | I] over GF(q).

The local code has length r + delta - 1, dimension r and minimum
distance exactly delta; the MDS property is never assumed from the
entry pattern but always verified by the low-weight search of `linear`:
no nonzero word of weight below delta may lie in the null space of [Q | I].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConstructionError, ParameterError
from .field import GF
from .linear import _low_weight_dual_words


@dataclass(frozen=True)
class MdsLocalMatrix:
    r: int
    delta: int
    field: GF
    Q: np.ndarray = dc_field(repr=False)  # (delta-1) x r

    @property
    def matrix(self):
        """Full parity check [Q | I] of shape (delta-1) x (r+delta-1)."""
        ident = np.eye(self.delta - 1, dtype=np.int64)
        return np.hstack([self.Q, ident])


def build_mds_parity(r, delta, field: GF, style="vandermonde"):
    """Build a verified [r+delta-1, r, delta] MDS parity check.

    vandermonde: Q[i][j] = beta^(i*j) with beta the field generator
    (row 0 all ones).  cauchy: Q[i][j] = 1/(x_i - y_j) over the first
    r+delta-1 field elements in encoding order; in characteristic 2 the
    difference equals the sum.  Either way the candidate must pass
    verify_mds, otherwise the call fails rather than substituting.
    """
    if r < 1 or delta < 2:
        raise ParameterError(f"need r >= 1 and delta >= 2, got r={r}, delta={delta}")
    if field.q < r + delta - 2:
        raise ParameterError(
            f"q = {field.q} < r + delta - 2 = {r + delta - 2}: field too small")
    rows = delta - 1
    if style == "vandermonde":
        beta = field.generator
        Q = np.array([[field.pow(beta, i * j) for j in range(r)]
                      for i in range(rows)], dtype=np.int64)
    elif style == "cauchy":
        if field.q < r + delta - 1:
            raise ParameterError(
                f"cauchy style needs r + delta - 1 = {r + delta - 1} distinct "
                f"field elements, q = {field.q}")
        xs = list(range(rows))
        ys = list(range(rows, rows + r))
        Q = np.array([[field.inv(field.sub(x, y)) for y in ys] for x in xs],
                     dtype=np.int64)
    else:
        raise ParameterError(f"unknown MDS style {style!r}")

    mds = MdsLocalMatrix(r=r, delta=delta, field=field, Q=Q)
    ok, witness = verify_mds(mds)
    if not ok:
        hint = ("; try the cauchy style" if style == "vandermonde"
                and field.q >= r + delta - 1 else "")
        cols = ", ".join(str(j + 1) for j in witness)
        raise ConstructionError(
            f"{style} candidate for (r={r}, delta={delta}, q={field.q}) is not "
            f"MDS: columns {cols} (1-based) are dependent{hint}")
    return mds


def verify_mds(mds: MdsLocalMatrix):
    """True iff no nonzero y of weight <= delta - 1 has [Q | I] y = 0,
    that is, every (delta-1)-subset of columns is independent.  On failure
    the witness is the 0-based support of the first such y by (weight,
    vector), a minimal dependent column set.  A search over
    DUAL_BYTE_BUDGET raises InfeasibleError."""
    words = _low_weight_dual_words(mds.field, mds.matrix, mds.delta - 1)
    if not len(words):
        return True, None
    first = min(words.tolist(), key=lambda v: (len(v) - v.count(0), v))
    return False, tuple(j for j, x in enumerate(first) if x)
