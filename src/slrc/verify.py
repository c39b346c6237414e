"""Exhaustive verification of sequential recoverability and locality.

Everything here is ground truth by enumeration: the one-at-a-time
peeling condition (for any erasure set I, some member has a recovery
set disjoint from I) is checked over every pattern up to the requested
size by `linear.repair_step`, the step `simulate.plan_repair` repairs
with, on recovery-set bitmasks built once per call.  Pattern order is
sizes ascending, lexicographic within a size, and the first failure
short-circuits, so counterexamples are minimal and deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

from .construct import ConstructedCode
from .errors import InfeasibleError
from .linear import (all_recovery_sets, min_distance, peel_table, puncture,
                     recovery_sets_for, repair_step)

MAX_PATTERNS = 10_000_000


@dataclass
class VerificationReport:
    checked_t: int
    holds: bool
    failing_pattern: tuple | None = None
    witnesses: dict = dc_field(default_factory=dict)  # size -> patterns checked
    t_star: int | None = None
    complete: bool = True

    def to_dict(self):
        return {
            "checked_t": self.checked_t,
            "holds": self.holds,
            "failing_pattern": None if self.failing_pattern is None
            else [i + 1 for i in self.failing_pattern],
            "witnesses": dict(self.witnesses),
            "t_star": self.t_star,
            "complete": self.complete,
        }


def _pattern_count(n, t):
    return sum(math.comb(n, s) for s in range(1, t + 1))


def _level_holds(peel, n, size):
    """Check the erasure patterns of exactly `size` in lexicographic
    order up to the first failure; returns (failing pattern or None,
    number of patterns checked)."""
    checked = 0
    for checked, (pattern, bits) in enumerate(zip(
            itertools.combinations(range(n), size),
            itertools.combinations([1 << i for i in range(n)], size)), 1):
        if repair_step(peel, pattern, sum(bits)) is None:
            return pattern, checked
    return None, checked


def check_sequential(code, r, t):
    """Certify (r, t) sequential recoverability by full enumeration."""
    n = code.n
    if _pattern_count(n, t) > MAX_PATTERNS:
        raise InfeasibleError(
            f"{_pattern_count(n, t)} erasure patterns at t={t} exceeds the "
            f"budget; use max_sequential_t with a smaller cap")
    peel = peel_table(code, r)
    report = VerificationReport(checked_t=t, holds=True)
    for size in range(1, t + 1):
        failing, report.witnesses[size] = _level_holds(peel, n, size)
        if failing is not None:
            report.holds = False
            report.failing_pattern = failing
            return report
    return report


def max_sequential_t(code, r, cap):
    """Largest t <= cap at which sequential recovery holds exhaustively.

    Returns a report; when a pattern level would exceed the enumeration
    budget the last certified t is reported with complete=False.
    """
    n = code.n
    peel = peel_table(code, r)
    report = VerificationReport(checked_t=0, holds=True, t_star=0)
    for size in range(1, cap + 1):
        if math.comb(n, size) > MAX_PATTERNS:
            report.complete = False
            return report
        failing, report.witnesses[size] = _level_holds(peel, n, size)
        if failing is not None:
            report.failing_pattern = failing
            return report
        report.checked_t = size
        report.t_star = size
    return report


@dataclass
class LocalityReport:
    per_coordinate: dict        # i -> {"supports": [...], "conditions": {...}}
    conditions_1_4: bool
    condition_5: bool | None    # None when not requested
    condition_5_t: int | None
    failures: list

    def to_dict(self):
        return {
            "conditions_1_4": self.conditions_1_4,
            "condition_5": self.condition_5,
            "condition_5_t": self.condition_5_t,
            "failures": list(self.failures),
            "per_coordinate": {
                i + 1: {
                    "supports": [[c + 1 for c in s] for s in rec["supports"]],
                    "conditions": rec["conditions"],
                }
                for i, rec in self.per_coordinate.items()
            },
        }


def check_information_locality(code: ConstructedCode, check_condition5=False):
    """Check the locality conditions for every information coordinate.

    For each i among the first k coordinates: its t_i row-block supports
    have size <= r + delta - 1 (1), the punctured subcode on each has
    minimum distance exactly delta (2), the supports pairwise intersect
    exactly in {i} (3), and each contains exactly delta - 1 parity
    coordinates (4).  Condition (5), recoverability of every pattern up
    to delta*t_i + 1 erasures, is a separate exhaustive run and is
    reported, not presumed.
    """
    p = code.params
    parity = set(range(p.k, code.n))
    supports = [set(code.row_block_support(j)) for j in range(p.b)]
    per_coord = {}
    failures = []
    dist_cache = {}
    for i in range(p.k):
        my_blocks = [j for j in range(p.b) if i in supports[j]]
        my_supports = [sorted(supports[j]) for j in my_blocks]
        conds = {}
        conds["count"] = len(my_blocks) == p.t_i
        conds["1"] = all(len(s) <= p.r + p.delta - 1 for s in my_supports)
        ok2 = True
        for j in my_blocks:
            key = frozenset(supports[j])
            if key not in dist_cache:
                dist_cache[key] = min_distance(puncture(code, supports[j]))
            if dist_cache[key] != p.delta:
                ok2 = False
        conds["2"] = ok2
        conds["3"] = all(
            supports[a] & supports[bb] == {i}
            for a, bb in itertools.combinations(my_blocks, 2))
        conds["4"] = all(
            len(supports[j] & parity) == p.delta - 1 for j in my_blocks)
        per_coord[i] = {"supports": my_supports, "conditions": conds}
        for name, ok in conds.items():
            if not ok:
                failures.append(f"coordinate {i + 1}: condition {name} fails")
    cond5 = None
    t5 = None
    if check_condition5:
        t5 = p.t_abstract
        cond5 = check_sequential(code, p.r, t5).holds
    return LocalityReport(
        per_coordinate=per_coord,
        conditions_1_4=not failures,
        condition_5=cond5,
        condition_5_t=t5,
        failures=failures,
    )


@dataclass
class StructureReport:
    statements: dict            # name -> {"holds": bool, "witness": ...}

    @property
    def all_hold(self):
        return all(s["holds"] for s in self.statements.values())

    def to_dict(self):
        return {"statements": self.statements, "all_hold": self.all_hold}


def check_code_structure(code: ConstructedCode):
    """Verify the four structural recovery-set claims of the construction.

    1. every information coordinate has t_i pairwise-disjoint recovery
       sets of size <= r;
    2. every line parity has a recovery set inside the information
       coordinates;
    3. each of the first ceil(s/r)*r line parities has a recovery set
       inside the parity coordinates, excluding itself;
    4. every global parity has a recovery set among the line parities.
    """
    p = code.params
    table = all_recovery_sets(code, p.r)
    info = set(range(p.k))
    line_par = set(code.line_parity_coords())
    glob_par = set(code.global_parity_coords())
    statements = {}

    bad = []
    examples = {}
    for i in range(p.k):
        best = _max_disjoint(table[i])
        examples[i] = [list(s.helpers) for s in best]
        if len(best) < p.t_i:
            bad.append(i + 1)
    statements["1"] = {
        "holds": not bad,
        "witness": {"missing": bad} if bad else
        {"example_coordinate_1": examples.get(0)},
    }

    bad = []
    for i in line_par:
        if not any(set(rs.helpers) <= info for rs in table[i]):
            bad.append(i + 1)
    statements["2"] = {"holds": not bad, "witness": {"missing": bad}}

    first = set(range(p.k, p.k + p.w_blocks * p.r))
    bad = []
    for i in first:
        allowed = (line_par | glob_par) - {i}
        if not any(set(rs.helpers) <= allowed for rs in table[i]):
            bad.append(i + 1)
    statements["3"] = {"holds": not bad, "witness": {"missing": bad}}

    bad = []
    for i in glob_par:
        if not any(set(rs.helpers) <= line_par for rs in table[i]):
            bad.append(i + 1)
    statements["4"] = {"holds": not bad, "witness": {"missing": bad}}
    return StructureReport(statements=statements)


def _max_disjoint(sets):
    """Largest pairwise-disjoint subfamily of recovery sets, by
    backtracking; returns the family itself."""
    best = []

    def extend(idx, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(sets):
            return
        if len(chosen) + (len(sets) - idx) <= len(best):
            return
        for j in range(idx, len(sets)):
            h = set(sets[j].helpers)
            if not (h & used):
                chosen.append(sets[j])
                extend(j + 1, chosen, used | h)
                chosen.pop()

    extend(0, [], set())
    return best


def rank_report(code: ConstructedCode):
    """Computed rank versus the construction note that claims rank
    b(delta-1); the worked instance contradicts that note, so the
    measured value is authoritative and the mismatch is flagged."""
    mu = code.params.mu
    return {
        "rows": int(code.H.shape[0]),
        "rank": code.rank,
        "dimension": code.dimension,
        "stated_rank": mu,
        "rank_matches_statement": code.rank == mu,
    }


def check_availability(code, i, r):
    """Maximum number of pairwise-disjoint size-<= r recovery sets of
    coordinate i."""
    return len(_max_disjoint(recovery_sets_for(code, i, r)))
