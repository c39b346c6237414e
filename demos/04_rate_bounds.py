"""Exact-rational rate accounting for the construction family.

All bounds are computed with Fraction arithmetic; the closed-form rate
is evaluated literally and compared against the exact rate from the
matrix dimensions, with divergences reported rather than hidden.
"""
from fractions import Fraction

from slrc import (GF, ConstructionParams, build_mds_parity,
                  build_parity_check, complete_graph_design, rate_report)

for r, delta in ((3, 3), (3, 2), (4, 3)):
    fld = GF(4 if r == 3 else 5)
    design = complete_graph_design(r)
    params = ConstructionParams(r=r, delta=delta, t_i=2, field=fld,
                                design=design,
                                mds=build_mds_parity(r, delta, fld))
    code = build_parity_check(params)
    rep = rate_report(r, 2, delta, params=params)
    print(f"r = {r}, delta = {delta}, t_i = 2 -> [{code.n}, {code.k}] code")
    for key, val in rep.items():
        if key == "notes":
            for note in val:
                print(f"    note: {note}")
        else:
            print(f"    {key}: {val}")
    assert rep["exact_rate"] == Fraction(code.k, code.n)
    print()
