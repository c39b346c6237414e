"""Exhaustively verify every claimed property of the reference code.

Nothing here is taken on faith: minimum distances come from full
codeword enumeration, recovery sets from low-weight dual codewords,
and the sequential-recovery tolerance from an exhaustive search for the
smallest stopping set up to the cap.
"""
from slrc import (check_code_structure, check_information_locality,
                  check_sequential, max_sequential_t, min_distance,
                  puncture, rank_report)
from slrc.reference import reference_code

code = reference_code()
lc = code.as_linear_code()

rep = rank_report(code)
print(f"rank(H) = {rep['rank']}, dimension = {rep['dimension']}")
print(f"matches the stated rank {rep['stated_rank']}? "
      f"{rep['rank_matches_statement']}")

print("\nlocal MDS blocks (punctured to each line's support):")
for j in range(code.params.b):
    support = code.row_block_support(j)
    local = puncture(lc, support)
    print(f"  block {j + 1}: support {[c + 1 for c in support]}, "
          f"length {len(support)}, distance {min_distance(local)}")

loc = check_information_locality(code)
print(f"\nlocality conditions 1-4 for all information symbols: "
      f"{loc.conditions_1_4}")
first = [s for s in map(code.row_block_support, range(code.params.b))
         if 0 in s]
print(f"supports of coordinate 1: {[[c + 1 for c in s] for s in first]}")

struct = check_code_structure(code)
print(f"structural recovery-set statements: "
      f"{ {name: s['holds'] for name, s in struct.statements.items()} }")

t_claim = code.params.t_i * (code.params.delta - 1)
seq = check_sequential(code, code.params.r, t_claim)
print(f"\nsequential recovery holds at t = {t_claim}: {seq.holds}")

sweep = max_sequential_t(code, code.params.r, cap=9)
print(f"exhaustive sweep up to 9 erasures: t* = {sweep.t_star}")
print(f"first failing pattern (1-based): "
      f"{[c + 1 for c in sweep.failing_pattern]}")
