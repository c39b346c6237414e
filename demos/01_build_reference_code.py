"""Build the reference [16, 6] code over GF(4) from first principles.

Walks through the pipeline: a (2, 3)-regular design from the edges of
K4, a [5, 3, 3] MDS local code, the expanded block M*, and the final
10 x 16 parity-check matrix H.
"""
import numpy as np

from slrc import (GF, ConstructionParams, build_mds_parity,
                  build_parity_check, complete_graph_design,
                  expand_m_star)

fld = GF(4)
print(f"field: GF(4), elements {list(fld.elements())}, generator {fld.generator}")

design = complete_graph_design(3)
print(f"\ndesign: k = {design.k} points (edges of K4), "
      f"b = {design.b} lines (vertices), each point on t_i = {design.t_i} lines")
print(np.asarray(design.incidence, dtype=np.int64))

mds = build_mds_parity(3, 3, fld)
print("\nlocal MDS parity check [Q | I], a [5, 3, 3] code:")
print(mds.matrix)

params = ConstructionParams(r=3, delta=3, t_i=2, field=fld,
                            design=design, mds=mds)

m_star = expand_m_star(design, mds)
print("\nM* (each line's j-th incidence becomes the j-th column of Q):")
print(m_star)

code = build_parity_check(params)
print(f"\nH is {code.H.shape[0]} x {code.H.shape[1]}:")
print(code.H)

print(f"\nparameters: n = {params.n}, k = {params.k}, rate = {params.rate}")
roles = {"information": params.k, "line_parity": params.mu,
         "global_parity": params.n - params.k - params.mu}
print(f"coordinate roles: {roles}")

message = [1, 0, 2, 0, 0, 3]
word = code.encode(message)
print(f"\nsystematic encoding of {message}:")
print(list(word))
