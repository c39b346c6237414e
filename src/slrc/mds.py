"""Local MDS parity-check matrices [Q | I] over GF(q).

The local code has length r + delta - 1, dimension r and minimum
distance exactly delta; the MDS property is never assumed from the
entry pattern but always verified by the low-weight search of `linear`:
no nonzero word of weight below delta may lie in the null space of [Q | I].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConstructionError, ParameterError, check_count
from .field import GF
from .linear import _low_weight_dual_words, rref


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


def build_mds_parity(r, delta, field: GF):
    """The systematic doubly-extended Reed-Solomon [r+delta-1, r, delta]
    parity check [Q | I], verified.  Its columns evaluate (1, x, ...,
    x^(delta-2)) at x = beta^j for j < r (Q; beta the field generator)
    and at 0, beta^r, ..., beta^(r+delta-4) and infinity, the column
    (0, ..., 0, 1) (I; for delta = 2 the single column (1)); one rref
    makes the latter I.  The points are distinct exactly when
    q >= r + delta - 2, and such a code is MDS (MacWilliams & Sloane,
    ch. 11); for delta <= 3, Q stays beta^(i*j).  verify_mds still checks
    the candidate, and a failure raises ConstructionError."""
    r, delta = check_count("r", r), check_count("delta", delta, 2)
    if field.q < r + delta - 2:
        raise ParameterError(
            f"q = {field.q} < r + delta - 2 = {r + delta - 2}: field too small")
    rows, beta = delta - 1, field.generator
    # None is infinity; for delta = 2 the one identity point is 0
    points = (([0] + [field.pow(beta, j) for j in range(r, r + delta - 3)]
               + [None])[:rows] + [field.pow(beta, j) for j in range(r)])
    V = np.array([[int(i == rows - 1) if x is None else field.pow(x, i)
                   for x in points] for i in range(rows)], dtype=np.int64)
    Q = rref(field, V)[0][:, rows:]
    mds = MdsLocalMatrix(r=r, delta=delta, field=field, Q=Q)
    ok, witness = verify_mds(mds)
    if not ok:
        cols = ", ".join(str(j + 1) for j in witness)
        raise ConstructionError(
            f"the local matrix for (r={r}, delta={delta}, q={field.q}) is not "
            f"MDS: columns {cols} (1-based) are dependent")
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
    return False, tuple(np.flatnonzero(words[0]).tolist())
