"""Exhaustive verification of sequential recoverability and locality.

An erasure pattern cannot be repaired one symbol at a time iff it holds
a stopping set, in which every recovery set of every member meets the
set; t* is the smallest stopping set's size minus one.  The search for
it (after Rosnes and Ytrehus, IEEE Trans. IT 2009) runs over the helper
bitmasks of `linear.recovery_table`, deepening one size at a time and
adding members in increasing order, so it meets first the first stuck
pattern by size and then lexicographically.  A recovery set R of a
member that avoids the set so far must be met by a later member, so
the next member is at most R's highest coordinate.  One more exact
rule cuts the search without changing what it finds, and it decides
every member alike, the last one too: before descending to a new
member x, the free recovery sets (those of the members so far and of
x that avoid the set with x added) are counted greedily into a family
that is pairwise disjoint above x.  Each later member meets at most
one of them, and a set with nothing above x can never be met, so x is
skipped once the family holds as many sets as members are still to
pick, x included.  For the last member that is any free set at all: x
is kept exactly when every recovery set of x and of the members
before it meets the set with x added.

`MAX_NODES` is spent one node per search node entered.

The checks take a code and r and nothing else: the search and the
structure battery read the masks of `recovery_table`'s one-entry memo,
so a command that runs both at one r builds them once.  They read helper
bitmasks only; no check builds a `linear.RepairStep` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .construct import ConstructedCode
from .errors import InfeasibleError, ParameterError, check_count
from .linear import punctured_distances, recovery_table

# Search nodes one sequential check may visit across all its sizes.
MAX_NODES = 5_000_000


@dataclass
class VerificationReport:
    checked_t: int
    holds: bool
    failing_pattern: tuple | None = None
    witnesses: dict = dc_field(default_factory=dict)  # size -> patterns covered
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


def _first_stopping_set(masks, size, nodes):
    """The lexicographically first stopping set of exactly `size`
    members, or None.  masks[i] holds the helper bitmasks of i's
    recovery sets; nodes is a one-item list of the nodes left, spent one
    per search node entered."""
    n = len(masks)

    def extend(picked, erased, free):
        # free: the recovery sets of picked members that avoid `erased`
        nodes[0] -= 1
        if nodes[0] < 0:
            raise InfeasibleError(f"stopping-set search of size {size} "
                                  f"exceeds the budget of {MAX_NODES} nodes")
        left = size - len(picked)
        if not left:
            return picked
        start = picked[-1] + 1 if picked else 0
        hi = min(min((m.bit_length() for m in free), default=n) - 1, n - left)
        for x in range(start, hi + 1):
            bit = 1 << x
            nf = ([m for m in free if not m & bit]
                  + [m for m in masks[x] if not m & (erased | bit)])
            # each later member hits at most one of the sets of nf that
            # are disjoint above x, and must hit them all
            used = disjoint = 0
            for m in nf:
                m >>= x + 1
                if not m & used:
                    used |= m
                    disjoint += 1
                    if disjoint == left:
                        break
            else:
                found = extend(picked + (x,), erased | bit, nf)
                if found is not None:
                    return found
        return None

    return extend((), 0, [])


def _stopping_search(code, r, cap, partial):
    """(first stopping set of size <= cap or None, witnesses, complete);
    out of MAX_NODES, a partial search reports the sizes done in full."""
    masks = recovery_table(code, r).masks
    n, nodes, witnesses = code.n, [MAX_NODES], {}
    for size in range(1, cap + 1):
        try:
            found = _first_stopping_set(masks, size, nodes)
        except InfeasibleError:
            if not partial:
                raise
            return None, witnesses, False
        # patterns a lexicographic check peels: all, or up to `found`
        witnesses[size] = math.comb(n, size) - sum(
            math.comb(n - 1 - c, size - i) for i, c in enumerate(found or ()))
        if found is not None:
            return found, witnesses, True
    return None, witnesses, True


def check_sequential(code, r, t):
    """Certify (r, t) sequential recovery: no stopping set of size <= t."""
    t = check_count("tolerance t", t)
    failing, witnesses, _ = _stopping_search(code, r, t, False)
    return VerificationReport(checked_t=t, holds=failing is None,
                              failing_pattern=failing, witnesses=witnesses)


def max_sequential_t(code, r, cap):
    """Largest t <= cap at which sequential recovery holds exhaustively;
    out of MAX_NODES, the largest size searched in full, with
    complete=False."""
    failing, witnesses, complete = _stopping_search(
        code, r, check_count("tolerance t", cap), True)
    t_star = len(failing) - 1 if failing is not None else len(witnesses)
    return VerificationReport(checked_t=t_star, holds=True,
                              failing_pattern=failing, witnesses=witnesses,
                              t_star=t_star, complete=complete)


@dataclass
class LocalityReport:
    conditions_1_4: bool
    failures: list


def _shape(code, check):
    """The code's `CodeShape`; ParameterError for a code without one."""
    if getattr(code, "params", None) is None:
        raise ParameterError(f"{check} needs a code with a CodeShape (params)"
                             f": a {type(code).__name__} carries none")
    return code.params


def check_information_locality(code: ConstructedCode):
    """Check the locality conditions for every information coordinate.

    For each i among the first k coordinates: its t_i row-block supports
    have size <= r + delta - 1 (1), the punctured subcode on each has
    minimum distance exactly delta (2; a block that punctures to the zero
    code fails it), the supports pairwise intersect exactly in {i} (3),
    and each contains exactly delta - 1 parity coordinates (4).
    Condition (5), recoverability of every pattern up to delta*t_i + 1
    erasures, is `check_sequential` at t_abstract.
    """
    p = _shape(code, "check_information_locality")
    parity = set(range(p.k, code.n))
    supports = [set(code.row_block_support(j)) for j in range(p.b)]
    # conditions 1, 2 and 4 belong to a row block: each is found once for
    # every block that holds an information coordinate
    info_blocks = [j for j, s in enumerate(supports)
                   if min(s, default=p.k) < p.k]
    distances = punctured_distances(code, [supports[j] for j in info_blocks])
    block = {j: (len(supports[j]) <= p.r + p.delta - 1, d == p.delta,
                 len(supports[j] & parity) == p.delta - 1)
             for j, d in zip(info_blocks, distances)}
    failures = []
    for i in range(p.k):
        mine = [j for j in range(p.b) if i in supports[j]]
        # the supports meet exactly in {i} when the rest of them are
        # pairwise disjoint
        rest = [supports[j] - {i} for j in mine]
        conds = {
            "count": len(mine) == p.t_i,
            "1": all(block[j][0] for j in mine),
            "2": all(block[j][1] for j in mine),
            "3": len(set().union(*rest)) == sum(map(len, rest)),
            "4": all(block[j][2] for j in mine),
        }
        for name, ok in conds.items():
            if not ok:
                failures.append(f"coordinate {i + 1}: condition {name} fails")
    return LocalityReport(conditions_1_4=not failures, failures=failures)


@dataclass
class StructureReport:
    statements: dict            # name -> {"holds": bool, "witness": ...}

    @property
    def all_hold(self):
        return all(s["holds"] for s in self.statements.values())


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
    p = _shape(code, "check_code_structure")
    masks = recovery_table(code, p.r).masks
    # smallest sets first, equal sizes in the table's order by helpers;
    # coordinate 1's largest family is the witness, the others need t_i
    best = [_max_disjoint(sorted(masks[i], key=int.bit_count),
                          p.t_i if i else None)
            for i in range(p.k)]
    bad = [i + 1 for i, sets in enumerate(best) if len(sets) < p.t_i]
    statements = {"1": {
        "holds": not bad,
        "witness": {"missing": bad} if bad else {"example_coordinate_1": [
            [h + 1 for h in range(m.bit_length()) if m >> h & 1]
            for m in best[0]] if best else None},
    }}
    # statements 2-4: each listed coordinate has a recovery set inside
    # the coordinates it may read (a set never holds its own target)
    line_par, glob_par = range(p.k, p.k + p.mu), range(p.k + p.mu, p.n)
    for name, coords, allowed in (
            ("2", line_par, range(p.k)),
            ("3", range(p.k, p.k + p.w_blocks * p.r), range(p.k, p.n)),
            ("4", glob_par, line_par)):
        outside = ~sum(1 << h for h in allowed)
        bad = [i + 1 for i in coords
               if not any(not m & outside for m in masks[i])]
        statements[name] = {"holds": not bad, "witness": {"missing": bad}}
    return StructureReport(statements=statements)


def _max_disjoint(masks, enough=None):
    """Largest pairwise-disjoint subfamily of helper bitmasks, by
    backtracking in list order; returns the family itself, the first of
    its size that the search meets.  Given `enough`, the search stops at
    the first family of that size."""
    best = []

    def extend(idx, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) == enough or len(chosen) + len(masks) - idx <= len(best):
            return
        for j in range(idx, len(masks)):
            if not masks[j] & used:
                chosen.append(masks[j])
                extend(j + 1, chosen, used | masks[j])
                chosen.pop()

    extend(0, [], 0)
    return best


def rank_report(code: ConstructedCode):
    """Computed rank versus the construction note that claims rank
    b(delta-1); the worked instance contradicts that note, so the
    measured value is authoritative and the mismatch is flagged."""
    mu = _shape(code, "rank_report").mu
    return {
        "rows": int(code.H.shape[0]),
        "rank": code.rank,
        "dimension": code.dimension,
        "stated_rank": mu,
        "rank_matches_statement": code.rank == mu,
    }
