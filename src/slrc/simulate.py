"""Erasure-and-repair simulation on concrete codewords.

Planning is greedy peeling with fixed tie-breaking (smallest repairable
coordinate first, lexicographically smallest helper set), which makes
schedules deterministic.  The planner picks each step's recovery set
by the helper bitmasks of `linear.peel_table`, the table `verify`'s
stopping-set search reads, and takes the step itself, not a copy, from
the `linear.RepairStep` records of `linear.repair_steps` at the same
index.  `_plans` memoizes both tables and their plans by erased set
for the last (code, r), so a campaign plans on one pair.  Within the
certified tolerance the peeling condition guarantees greedy never gets
stuck, so no backtracking is needed; outside it, a stuck state is a
structured result.  Planning and repair read erased coordinates with
one reader, `_erased`, and repair reads a word with `GF.check`.

A campaign's random draws are those of numpy's `integers` and `choice`
on the seeded `Generator`, made from its raw 32-bit stream without a
numpy call per trial (`_Draws`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count
from .field import GF
from .linear import peel_table, repair_steps


@dataclass(frozen=True, slots=True)    # plan_repair's memo holds thousands
class RepairSchedule:
    erased: tuple
    steps: tuple
    complete: bool
    residual: tuple = ()   # coordinates left unrepaired when stuck


_MEMO_SIZE = 1 << 12    # schedules per table before the dict empties
_BLOCK = 4096           # raw words per numpy call of _Draws


def _erased(code, erased):
    """The erased coordinates as a sorted tuple of distinct ints; raises
    ParameterError for a coordinate that is not an integer (a bool is
    none) or lies outside 0..n-1."""
    try:
        given = tuple(erased)
        if operator.countOf(map(type, given), int) != len(given):
            if bool in map(type, given):    # operator.index(True) is 1
                raise TypeError
            given = map(operator.index, given)      # numpy integers
        coords = tuple(sorted({*given}))
    except TypeError:
        raise ParameterError(f"erased coordinates must be integers, "
                             f"got {erased!r}") from None
    if coords and (coords[0] < 0 or coords[-1] >= code.n):
        raise ParameterError(f"erased coordinates must lie in "
                             f"0..{code.n - 1}, got {list(coords)}")
    return coords


def plan_repair(code, erased, r):
    """Greedy peeling plan for the erased coordinate set.

    Returns a RepairSchedule of Python ints; `complete` is False when
    peeling gets stuck, with the unrepairable residue recorded.
    Raises ParameterError as `_erased` does, and unless r is an integer
    >= 1.  Schedules are memoized by erased set for the last (code, r),
    so one set planned twice gives the same object.
    """
    if type(r) is not int:      # an unhashable r cannot key the memo
        r = check_count("locality r", r)
    peel, records, schedules = _plans(code, r)
    erased = _erased(code, erased)
    mask = 0
    for i in erased:
        mask |= 1 << i
    schedule = schedules.get(mask)
    if schedule is None:
        if len(schedules) >= _MEMO_SIZE:
            schedules.clear()
        schedule = schedules[mask] = _greedy(peel, records, erased, mask)
    return schedule


@functools.lru_cache(maxsize=1, typed=True)
def _plans(code, r):
    """The peel table, its RepairStep records and their schedules by erased
    bitmask, for the last (code, r) asked for, keyed as the tables' own
    one-entry memos; each plan reads the triple its call got."""
    return peel_table(code, r), repair_steps(code, r), {}


def _greedy(peel, records, erased, mask):
    """The greedy schedule for the sorted erased tuple, whose bitmask is
    `mask`, on the peel table and its records."""
    remaining = list(erased)
    steps = []
    while remaining:
        # the first recovery set, by coordinate and then by helpers, that
        # avoids every erased coordinate
        step = next((records[i][j] for i in remaining
                     for j, helper_mask in enumerate(peel[i])
                     if not helper_mask & mask), None)
        if step is None:
            return RepairSchedule(erased, tuple(steps), False,
                                  tuple(remaining))
        steps.append(step)
        remaining.remove(step.repaired)
        mask ^= 1 << step.repaired
    return RepairSchedule(erased, tuple(steps), True)


@functools.lru_cache(maxsize=None)
def _scalar_tables(q, prim_poly):
    """GF(q)'s add and mul tables modulo prim_poly as tuples of row tuples
    of q shared ints, keyed by the spec: a `GF` hashes slower."""
    ints = list(range(q))
    fld = GF(q, prim_poly)
    return tuple(tuple(tuple(map(ints.__getitem__, row.tolist()))
                       for row in table)
                 for table in (fld.add_table, fld.mul_table))


def execute_repair(code, codeword, erased, schedule: RepairSchedule):
    """Apply a schedule's linear combinations; returns the restored word
    as a tuple of Python ints.  Raises FieldError for a word that
    `GF.check` refuses, ParameterError for one whose length is not n or
    erased coordinates that `_erased` refuses or the schedule does not
    have, and RuntimeError if a step reads a symbol still erased or the
    steps leave one unrepaired (a planner bug, not a data property)."""
    fld = code.field
    values = fld.check(codeword)
    if len(values) != code.n:
        raise ParameterError(f"word length {len(values)} != n = {code.n}")
    erased = _erased(code, erased)
    if erased != schedule.erased:
        raise ParameterError(f"erased {list(erased)} differs from the "
                             f"schedule's {list(schedule.erased)}")
    add, mul = _scalar_tables(fld.q, fld.prim_poly)
    for i in erased:
        values[i] = None
    left = len(erased)          # erased coordinates not yet repaired
    for step in schedule.steps:
        acc = 0
        for h, a in zip(step.helpers, step.coeffs):
            v = values[h]
            if v is None:
                raise RuntimeError(
                    f"schedule reads coordinate {h + 1} before it is repaired")
            if a and v:
                acc = add[acc][mul[a][v]]
        left -= values[step.repaired] is None
        values[step.repaired] = acc
    if left:
        raise RuntimeError(f"schedule leaves "
                           f"{[i for i in erased if values[i] is None]} "
                           f"unrepaired")
    return tuple(values)


class _Draws:
    """The draws of a seeded `np.random.default_rng(seed)`, made from its
    raw 32-bit stream, which is read in blocks of _BLOCK words with one
    numpy call each (every word one `next_uint32`, the stream numpy's
    bounded draws read).  Each method returns exactly what its numpy call
    returns and consumes exactly the words that call consumes, so a
    campaign's draws match those of `integers` and `choice` call for
    call, with no numpy call per trial.

    `below` is numpy's 32-bit Lemire draw (Lemire, ACM TOMACS 2019);
    `sample` is `choice(replace=False)`, Floyd's algorithm (Bentley &
    Floyd, CACM 1987) and then a shuffle, or a partial shuffle of
    arange(n) when n > 10000 and the sample is over n // 50."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        # the lambda holds rng and not self: no cycle keeps a block alive
        blocks = iter(lambda: rng.integers(0, 1 << 32, size=_BLOCK,
                                           dtype=np.uint32).tolist(), None)
        self._words = itertools.chain.from_iterable(blocks)
        self._next = self._words.__next__

    def below(self, span):
        """`integers(0, span)`, 1 <= span <= 2**32, as a Python int."""
        if span == 1:
            return 0
        m = self._next() * span
        if m & 0xFFFFFFFF < span:
            threshold = (1 << 32) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next() * span
        return m >> 32

    def integers(self, span, size):
        """`integers(0, span, size=size)` as a list of Python ints."""
        if (1 << 32) % span:
            return [self.below(span) for _ in range(size)]
        # span divides 2**32: no word is rejected
        return [u * span >> 32 for u in itertools.islice(self._words, size)]

    def sample(self, n, size):
        """The sorted tuple of `choice(n, size, replace=False)`."""
        below = self.below
        if n > 10000 and size > n // 50:
            moved = {}          # the entries of arange(n) the shuffle moved
            for i in range(n - 1, max(n - size, 1) - 1, -1):
                j = below(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return tuple(sorted(moved.get(i, i) for i in range(n - size, n)))
        chosen = set()
        for j in range(n - size, n):
            v = below(j + 1)
            chosen.add(j if v in chosen else v)
        for i in range(size - 1, 0, -1):
            below(i + 1)        # numpy shuffles the sample; it is sorted here
        return tuple(sorted(chosen))


def trial_campaign(code, r, t, trials, seed, trace=None):
    """Seeded random erasure trials; returns summary statistics.

    Pattern sizes are drawn uniformly from 1..t (capped at n).  Success
    rate must be 1.0 whenever t is at or below the certified tolerance.
    `trace`, when given, is called with every executed RepairStep.
    Each message is `code.dimension` symbols, put through `code.encode`,
    which raises ParameterError in the first trial for an H off its layout.
    The summary lists the first ten failed trials and counts them all.
    Raises ParameterError unless trials and t are integers >= 1 and the
    seed a non-negative integer; a bool is not one.
    """
    # as ints: a numpy integer would overflow in the draws
    trials, t = check_count("trials", trials), check_count("t", t)
    seed = check_count("seed", seed, 0)
    q, n, k = code.field.q, code.n, code.dimension
    draws = _Draws(seed)
    successes = 0
    total_steps = 0
    total_helpers = 0
    failures = []
    failure_count = 0
    for trial in range(trials):
        # the draws of numpy's integers(1, min(t, n) + 1), choice(n, size,
        # replace=False) and integers(0, q, size=k), in that order
        size = 1 + draws.below(min(t, n))
        erased = draws.sample(n, size)
        word = code.encode(draws.integers(q, k))
        schedule = plan_repair(code, erased, r)
        if schedule.complete:
            if trace is not None:
                for step in schedule.steps:
                    trace(step)
            if execute_repair(code, word, erased, schedule) == word:
                successes += 1
                total_steps += len(schedule.steps)
                total_helpers += sum(len(s.helpers) for s in schedule.steps)
                continue
            failure = {"reason": "mismatch after repair"}
        else:
            failure = {"residual": [i + 1 for i in schedule.residual]}
        failure_count += 1
        if len(failures) < 10:
            failures.append({"trial": trial,
                             "erased": [i + 1 for i in erased], **failure})
    return {
        "trials": trials,
        "t": t,
        "seed": seed,
        "success_rate": successes / trials,
        "mean_schedule_length": total_steps / successes if successes else None,
        "mean_helpers_per_repair": (total_helpers / total_steps
                                    if total_steps else None),
        "failures": failures,
        "failure_count": failure_count,
    }
