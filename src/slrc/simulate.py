"""Erasure-and-repair simulation on concrete codewords.

Planning is greedy peeling with fixed tie-breaking (smallest repairable
coordinate first, lexicographically smallest helper set), which makes
schedules deterministic.  The planner picks each step's recovery set
by the helper bitmasks of `linear.peel_table`, the table `verify`'s
stopping-set search reads, and makes a `linear.RepairStep` record only
for each step it takes, from the entry of `linear.recovery_table` at
the same index.  Each call plans anew; the two tables keep their own
one-entry memos, so a campaign builds each once.  Within the certified
tolerance the peeling condition guarantees greedy never gets stuck, so
no backtracking is needed; outside it, a stuck state is a structured
result.  Planning and repair read erased coordinates with
`errors.check_coordinates`, and repair reads a word with `GF.check`.

A campaign's random draws are uniform pattern sizes, uniform erased
sets of each size and uniform messages, made a pass of trials at a time
by three numpy calls on the seeded `Generator` (`_draws`).  Two routes
run a campaign on those passes and return the same summary through one
builder (`_summary`): `trial_campaign`, one `code.encode`, `plan_repair`
and `execute_repair` per trial, which is the oracle, and `campaign`,
which `slrc simulate` runs: it encodes a pass by `code.encode`'s block
product (`linear._codewords`), plans all its trials at once by the
same greedy rule on a (coordinate, trial) bool matrix and the arrays of
`linear.recovery_table` (`_plan`), and applies step s of every schedule
as one gather (`_repair`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_coordinates, check_count
from .linear import _codewords, peel_table, recovery_table


@dataclass(frozen=True, slots=True)
class RepairSchedule:
    erased: tuple
    steps: tuple
    complete: bool
    residual: tuple = ()   # coordinates left unrepaired when stuck


_TRIALS = 1024          # trials per pass of _draws
_PRODUCT_BYTES = 1 << 20    # bound on a pass's permutation and a product


def plan_repair(code, erased, r):
    """Greedy peeling plan for the erased coordinate set.

    Returns a RepairSchedule of Python ints; `complete` is False when
    peeling gets stuck, with the unrepairable residue recorded.
    Raises ParameterError as `errors.check_coordinates` does, and unless
    r is an integer >= 1, and InfeasibleError as `linear.recovery_table`
    does.
    """
    return _greedy(peel_table(code, r), recovery_table(code, r),
                   check_coordinates("erased coordinates", erased, code.n))


def _greedy(peel, table, erased):
    """The greedy schedule for the sorted erased tuple on the peel table,
    with one record of the recovery table made for each step taken."""
    mask = 0
    for i in erased:
        mask |= 1 << i
    remaining = list(erased)
    steps = []
    while remaining:
        # the first recovery set, by coordinate and then by helpers, that
        # avoids every erased coordinate
        pick = next(((i, j) for i in remaining
                     for j, helper_mask in enumerate(peel[i])
                     if not helper_mask & mask), None)
        if pick is None:
            return RepairSchedule(erased, tuple(steps), False,
                                  tuple(remaining))
        i, j = pick
        steps.append(table.step(table.first.item(i) + j))
        remaining.remove(i)
        mask ^= 1 << i
    return RepairSchedule(erased, tuple(steps), True)


def execute_repair(code, codeword, erased, schedule: RepairSchedule):
    """Apply a schedule's linear combinations; returns the restored word
    as a tuple of Python ints.  Raises FieldError for a word that
    `GF.check` refuses, ParameterError for one whose length is not n or
    erased coordinates that `errors.check_coordinates` refuses or the
    schedule does not have, and RuntimeError if a step reads a symbol
    still erased or the steps leave one unrepaired (a planner bug, not a
    data property)."""
    fld = code.field
    values = fld.check(codeword)
    if len(values) != code.n:
        raise ParameterError(f"word length {len(values)} != n = {code.n}")
    erased = check_coordinates("erased coordinates", erased, code.n)
    if erased != schedule.erased:
        raise ParameterError(f"erased {list(erased)} differs from the "
                             f"schedule's {list(schedule.erased)}")
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
                acc = fld.add(acc, fld.mul(a, v))
        left -= values[step.repaired] is None
        values[step.repaired] = acc
    if left:
        raise RuntimeError(f"schedule leaves "
                           f"{[i for i in erased if values[i] is None]} "
                           f"unrepaired")
    return tuple(values)


def _draws(seed, n, t, q, k, count):
    """The draws of `count` trials, one (sizes, erased, messages) triple
    of int64 arrays per pass: each trial's pattern size, its erased
    coordinates as a sorted row padded with n on the right, as wide as
    the pass's largest size, and its message as a row of k symbols.  A
    pass of m trials makes three calls on `np.random.default_rng(seed)`,
    in this order: integers(1, min(t, n) + 1, m) for the sizes, then
    `permuted` of m rows of arange(n) along each row, whose first `size`
    entries are the trial's erased set, and integers(0, q, (m, k)) for
    the messages.  A pass holds up to _TRIALS trials, and fewer where its
    (m, n) permutation would pass _PRODUCT_BYTES, though always one."""
    rng = np.random.default_rng(seed)
    s = min(t, n)
    most = max(1, min(_TRIALS, _PRODUCT_BYTES // (8 * n)))
    while count:
        m = min(most, count)
        sizes = rng.integers(1, s + 1, m)
        width = int(sizes.max())
        erased = rng.permuted(np.broadcast_to(np.arange(n), (m, n)),
                              axis=1)[:, :width].copy()
        erased[np.arange(width) >= sizes[:, None]] = n
        erased.sort(axis=1)
        yield sizes, erased, rng.integers(0, q, (m, k))
        del sizes, erased       # before the next pass draws its own
        count -= m


def trial_campaign(code, r, t, trials, seed, trace=None):
    """Seeded random erasure trials; returns summary statistics.

    Pattern sizes are uniform on 1..t (capped at n), each erased set is
    uniform among the sets of its size and each message symbol uniform
    on the field, all drawn by `_draws` on `np.random.default_rng(seed)`.
    Success rate must be 1.0 whenever t is at or below the certified
    tolerance; above it, the expected failure count is the trials times
    the stuck patterns' share of each size, averaged over sizes.
    `trace`, when given, is called with every executed RepairStep.
    Each message is `code.dimension` symbols, put through `code.encode`,
    which raises ParameterError in the first trial for an H off its layout.
    The summary lists the first ten failed trials and counts them all.
    Raises ParameterError unless trials and t are integers >= 1 and the
    seed a non-negative integer (a bool is not one), and for a code of
    length 0, as every trial erases a coordinate; r is read, and its
    tables refused, as `plan_repair` does.

    This is the per-trial route: one `code.encode`, one `plan_repair`
    and, for a complete schedule, one `execute_repair` per trial, each
    trial split from the passes of `_draws` that `campaign` reads too.
    `campaign` gives the same summary and trace on whole arrays, and
    this route is its oracle.
    """
    # as ints: the summary reports them, and JSON takes no numpy integer
    trials, t = check_count("trials", trials), check_count("t", t)
    seed = check_count("seed", seed, 0)
    check_count("code length n", code.n)
    draws = _split(_draws(seed, code.n, t, code.field.q, code.dimension,
                          trials), code.n)
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
            residual = None
        else:
            residual = schedule.residual
        failure_count += 1
        if len(failures) < 10:
            failures.append(_failure(trial, erased, residual))
    return _summary(trials, t, seed, successes, total_steps, total_helpers,
                    failures, failure_count)


def _split(passes, n):
    """The (erased, message) pairs of the passes' trials, one at a time;
    each pass is read into two flat lists, so that a trial's objects
    exist only while it runs."""
    for sizes, erased, messages in passes:
        k = messages.shape[1]
        sizes, coords, symbols = (sizes.tolist(), erased[erased < n].tolist(),
                                  messages.ravel().tolist())
        del erased, messages
        start = 0
        for i, size in enumerate(sizes):
            yield tuple(coords[start:start + size]), symbols[i * k:i * k + k]
            start += size
        del coords, symbols     # before the next pass is read


def _failure(trial, erased, residual):
    """A failed trial's entry in a summary, coordinates 1-based: the
    coordinates left when its plan got stuck, or, where residual is None,
    a repair that did not restore the word."""
    return {"trial": trial, "erased": [i + 1 for i in erased],
            **({"reason": "mismatch after repair"} if residual is None
               else {"residual": [i + 1 for i in residual]})}


def _summary(trials, t, seed, successes, steps, helpers, failures,
             failure_count):
    """The summary both campaign routes return, from their counts: steps
    and helpers over the successful trials, and the first failures."""
    return {
        "trials": trials,
        "t": t,
        "seed": seed,
        "success_rate": successes / trials,
        "mean_schedule_length": steps / successes if successes else None,
        "mean_helpers_per_repair": helpers / steps if steps else None,
        "failures": failures,
        "failure_count": failure_count,
    }


def campaign(code, r, t, trials, seed, trace=None):
    """`trial_campaign`'s summary, with the same `trace` calls in the same
    order, computed on whole arrays a pass of `_draws` at a time, so
    that its draws and block products stay within _PRODUCT_BYTES: the
    pass's messages are encoded by `linear._codewords`, its trials
    planned together (`_plan`) on the arrays of `linear.recovery_table`,
    and each step of every schedule applied as one gather and one table
    lookup (`_repair`).  No call is made per trial: neither
    `code.encode`, `plan_repair` nor `execute_repair` runs, and `trace`
    gets a record made by the table's `step` for each traced step alone.

    Raises as `trial_campaign` does, before any trace call.
    """
    trials, t = check_count("trials", trials), check_count("t", t)
    seed = check_count("seed", seed, 0)
    n = check_count("code length n", code.n)
    code.check_encodable()
    field = code.field
    table = recovery_table(code, r)
    successes = total_steps = total_helpers = failure_count = 0
    failures = []
    done = 0        # trials of the passes before
    for sizes, erased, messages in _draws(seed, n, t, field.q,
                                          code.dimension, trials):
        count = len(sizes)
        words = _codewords(field, code.generator, code._columns, messages,
                           _PRODUCT_BYTES)
        # a column per trial; row n is never missing and reads as 0: the
        # helpers' pad
        missing = np.zeros((n + 1, count), bool)
        missing[erased, np.arange(count)[:, None]] = True
        missing[n] = False
        values = np.zeros((n + 1, count), field.dtype)
        values[:n] = np.where(missing[:n], 0, words)     # as erased
        picks, stuck = _plan(missing, table)
        _repair(field, values, picks, table)
        success = ~stuck & (values[:n] == words).all(axis=0)
        good = np.flatnonzero(success)
        successes += len(good)
        total_steps += int(sizes[good].sum())
        total_helpers += int(table.size[picks[:, good]].sum())
        if trace is not None:
            for e in picks[:, ~stuck].T.ravel().tolist():
                if e >= 0:
                    trace(table.step(e))
        bad = np.flatnonzero(~success)
        failure_count += len(bad)
        for i in bad[:10 - len(failures)].tolist():
            failures.append(_failure(
                done + i, erased[i, :sizes[i]].tolist(),
                np.flatnonzero(missing[:, i]).tolist() if stuck[i] else None))
        done += count
    return _summary(trials, t, seed, successes, total_steps, total_helpers,
                    failures, failure_count)


def _plan(missing, table):
    """The greedy schedules of a pass's trials, planned together.  At each
    step every trial with coordinates left takes the first entry of the
    table, in its order, whose coordinate it misses and whose helpers it
    does not: `_greedy`'s pick, smallest coordinate, then helpers.

    `missing` is an (n + 1, trials) bool array, a column per trial and
    row n False, and is left with each stuck trial's residual.  Returns
    (picks, stuck): picks[s, i] is the entry trial i repairs at step s,
    -1 after its last, and stuck marks the trials whose plan got stuck.
    A step decides `table.rows` trials at a time."""
    trials = missing.shape[1]
    picks = np.full((int(missing.sum(axis=0).max(initial=0)), trials), -1)
    if not len(table.coord):        # every trial is stuck at once
        return picks[:0], missing.any(axis=0)
    stuck = np.zeros(trials, bool)
    for step in picks:
        for lo in range(0, trials, table.rows):
            part = missing[:, lo:lo + table.rows]
            usable = part[table.coord]          # (entries, trials)
            for helper in table.helpers:        # and not missing
                np.greater(usable, part[helper], out=usable)
            pick = usable.argmax(axis=0)
            found = usable[pick, np.arange(len(pick))]
            # a trial with coordinates left and none usable is stuck
            stuck[lo:lo + table.rows] |= part.any(axis=0) > found
            live = np.flatnonzero(found)
            step[lo + live] = pick = pick[live]
            part[table.coord[pick], live] = False
        if (step < 0).all():
            break
    return picks, stuck


def _repair(field, values, picks, table):
    """Apply a pass's schedules to `values`, an (n + 1, trials) array of
    the field's dtype whose row n is 0: step s of every schedule is one
    gather of its helpers' symbols and one `mul` table lookup, summed by
    `GF.vsum`."""
    for step in picks:
        live = np.flatnonzero(step >= 0)
        entry = step[live]
        symbols = values[table.helpers[:, entry], live]
        values[table.coord[entry], live] = field.vsum(
            field.vmul(table.coeffs[:, entry], symbols), axis=0)
