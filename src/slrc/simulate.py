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
numpy call per trial (`_Draws`): a block pass decides up to _TRIALS
trials at once with a few numpy calls, and a trial it cannot decide
exactly (a rejected word, size = n, numpy's tail-shuffle branch) is
drawn by the scalar readers on the same words.
"""

from __future__ import annotations

import functools
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
_TRIALS = 256           # trials per block pass of _Draws.trials
_WINDOW = 1 << 13       # raw words a block pass reads at most
_BUFFER = 2 * _WINDOW   # raw words _Draws holds


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
    raw 32-bit stream (every word one `next_uint32`, the stream numpy's
    bounded draws read), which one buffer of _BUFFER words holds: a
    refill keeps the unread words and draws the rest with one numpy call.
    Each method returns exactly what its numpy calls return and consumes
    exactly the words they consume.

    `below` is numpy's 32-bit Lemire draw (Lemire, ACM TOMACS 2019):
    a word w gives (w span) >> 32 unless (w span) mod 2**32 is below
    2**32 mod span, when it is rejected and the next word read.
    `sample` is `choice(replace=False)`, Floyd's algorithm (Bentley &
    Floyd, CACM 1987) and then a shuffle, or a partial shuffle of
    arange(n) when n > 10000 and the sample is over n // 50.  These
    scalar readers are exact for every draw.

    `trials` makes a campaign's draws for up to _TRIALS trials per pass
    (`_block`) with a few numpy calls on the buffer: a trial none of
    whose words is rejected reads a known run of words, so its draws are
    a fixed function of them.  A trial the pass cannot decide that way,
    one with a rejected word, a span-1 Floyd draw (size = n, which reads
    no word) or on the tail-shuffle branch, is drawn by the scalar
    readers on the same buffer, and the next pass starts after it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._words = np.empty(_BUFFER, np.uint32)
        self._view = memoryview(self._words)
        self._pos = _BUFFER     # the next unread word

    def _refill(self):
        """Move the unread words to the front and draw the rest anew."""
        unread = _BUFFER - self._pos
        self._words[:unread] = self._words[self._pos:]
        self._words[unread:] = self._rng.integers(0, 1 << 32, size=self._pos,
                                                  dtype=np.uint32)
        self._pos = 0

    def _next(self):
        if self._pos == _BUFFER:
            self._refill()
        self._pos += 1
        return self._view[self._pos - 1]

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
        return [self.below(span) for _ in range(size)]

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

    def trials(self, n, t, q, k, count):
        """The (erased, message) pairs of `count` trials: the draws of
        numpy's integers(1, min(t, n) + 1), choice(n, size, replace=False)
        and integers(0, q, size=k), in that order, per trial; n >= 1 and
        2 <= q <= 2**32, as every message symbol reads a word."""
        s = min(t, n)
        while count:
            if _BUFFER - self._pos < _WINDOW:
                self._refill()
            sizes, erased, messages, stuck = self._block(
                n, s, q, k, min(count, _TRIALS))
            count -= len(sizes) + stuck
            start = 0
            for i, size in enumerate(sizes):
                yield (tuple(erased[start:start + size]),
                       messages[i * k:i * k + k])
                start += size
            if stuck:
                size = 1 + self.below(s)
                yield self.sample(n, size), self.integers(q, k)

    def _block(self, n, s, q, k, most):
        """The next trials, at most `most`, that one pass decides exactly
        from at most _WINDOW words, and whether the trial after them is
        one it cannot decide."""
        view, pos = self._view, self._pos
        sized = s > 1           # integers(1, 2) reads no word
        stop = pos + _WINDOW
        # each trial's start and size, as if no word were rejected: a
        # size word, size Floyd words, size - 1 shuffle words, k message
        starts, sizes = [], []
        end, stuck = pos, False
        while len(sizes) < most and end < stop:
            size = 1 + (view[end] * s >> 32) if sized else 1
            after = end + sized + 2 * size - 1 + k
            if after > stop and sizes:
                break           # the next pass reads it
            if size == n or n > 10000 and size > n // 50 or after > stop:
                stuck = True
                break
            starts.append(end)
            sizes.append(size)
            end = after
        if not sizes:
            return [], [], [], stuck
        # every word's span, trial by trial: s, then j + 1 for Floyd's j
        # in n - size..n - 1, then size..2 for the shuffle, then q; built
        # in place, as these arrays are the pass's largest
        size = np.array(sizes)
        first = np.array(starts) - pos
        lengths = sized + 2 * size - 1 + k
        size_at = np.repeat(size, lengths)
        past = np.arange(end - pos)     # words past the trial's Floyd draws
        past -= np.repeat(first + sized, lengths)
        past -= size_at
        span = size_at - past           # the shuffle's; 1 or less after it
        np.add(past, n + 1, out=span, where=past < 0)
        del past, size_at
        span[span < 2] = q              # Floyd's spans are 2 or more
        if sized:
            span[first] = s
        span = span.view(np.uint64)
        product = self._words[pos:end] * span
        # Lemire's rejection, (w span) mod 2**32 < 2**32 mod span, can
        # hold only below span: the exact test reads those words alone
        low = product & 0xFFFFFFFF
        suspect = np.flatnonzero(low < span)
        rejected = suspect[low[suspect] < (1 << 32) % span[suspect]]
        del low, span
        if len(rejected):       # the trials before the first rejection
            cut = np.searchsorted(first, rejected[0], side="right") - 1
            if not cut:
                return [], [], [], True
            size, first, stuck = size[:cut], first[:cut], True
            end = starts[cut]
        product >>= 32
        value = product.view(np.int64)
        # Floyd's draws, one column per draw: a value drawn before is
        # replaced by j, which no earlier draw can be
        column = np.arange(size.max())
        j = n - size[:, None] + column
        chosen = value[np.minimum(first[:, None] + sized + column,
                                  end - pos - 1)]
        for c in range(1, len(column)):
            repeat = (chosen[:, :c] == chosen[:, c, None]).any(axis=1)
            chosen[:, c] = np.where(repeat, j[:, c], chosen[:, c])
        chosen[j >= n] = n      # past the sample: sorts last
        chosen.sort(axis=1)
        message = value[first[:, None] + sized + 2 * size[:, None] - 1
                        + np.arange(k)]
        self._pos = end
        # flat lists, so that a trial's objects exist only while it runs
        return (size.tolist(), chosen[chosen < n].tolist(), message.ravel()
                .tolist(), stuck)


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
    draws = _Draws(seed).trials(code.n, t, code.field.q, code.dimension,
                                trials)
    successes = 0
    total_steps = 0
    total_helpers = 0
    failures = []
    failure_count = 0
    for trial, (erased, message) in enumerate(draws):
        word = code.encode(message)
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
