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
one reader, `_erased`, and repair reads a word with `GF.check`.

A campaign's random draws are those of numpy's `integers` and `choice`
on the seeded `Generator`, made in block passes from its raw stream
(`_draws`), with no numpy call per trial.  Two routes run a campaign on
those passes and return the same summary through one builder
(`_summary`): `trial_campaign`, one `code.encode`, `plan_repair` and
`execute_repair` per trial, which is the oracle, and `campaign`, which
`slrc simulate` runs: it encodes a pass by `code.encode`'s block
product (`linear._codewords`), plans all its trials at once by the
same greedy rule on a (coordinate, trial) bool matrix and the arrays of
`linear.recovery_table` (`_plan`), and applies step s of every schedule
as one gather (`_repair`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count
from .linear import _codewords, peel_table, recovery_table


@dataclass(frozen=True, slots=True)
class RepairSchedule:
    erased: tuple
    steps: tuple
    complete: bool
    residual: tuple = ()   # coordinates left unrepaired when stuck


_TRIALS = 1024          # trials per block pass of _draws
_WINDOW = 1 << 14       # raw words a block pass reads at most
_PRODUCT_BYTES = 1 << 20    # bound on a block product of `campaign`


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
    >= 1, and InfeasibleError as `linear.recovery_table` does.
    """
    return _greedy(peel_table(code, r), recovery_table(code, r),
                   _erased(code, erased))


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
    coordinates as a sorted row padded with n on the right, and its
    message as a row of k symbols.  They are the draws of
    numpy's integers(1, min(t, n) + 1), choice(n, size, replace=False)
    and integers(0, q, size=k), in that order, per trial, on
    `np.random.default_rng(seed)`; n >= 1 and 2 <= q <= 2**32.  They are
    computed from the generator's raw 32-bit stream (`next_uint32`,
    which numpy's bounded draws read), drawn a window of _WINDOW words at
    a time, each pass (`_block`) deciding up to _TRIALS trials with a few
    numpy calls.  A draw at span m is
    Lemire's (ACM TOMACS 2019): word w gives (w m) >> 32 unless
    (w m) mod 2**32 is below 2**32 mod m, when the next word is read at
    span m; m = 1 reads none.  `choice(n, size, replace=False)` is
    Floyd's algorithm (Bentley & Floyd, CACM 1987) at spans
    n - size + 1..n, then a shuffle at spans size..2, or a partial
    shuffle of arange(n) at spans n down to n - size + 1 when n > 10000
    and size > n // 50 (the tail branch)."""
    rng = np.random.default_rng(seed)
    s = min(t, n)
    runs = _runs(n, s, q, k)
    lengths = runs[2].sum(axis=1)       # a trial's words, by size - 1
    longest = int(lengths.max())
    window = max(_WINDOW, longest)      # every trial fits a pass
    words = np.empty(2 * window, np.uint32)
    pos = end = 0           # the next unread word and the end of those drawn
    most = min(count, _TRIALS)
    while count:
        if end - pos < window:  # keep the unread words, draw a window more
            end -= pos
            words[:end] = words[pos:pos + end]
            words[end:end + window] = rng.integers(0, 1 << 32, window,
                                                   np.uint32)
            end, pos = end + window, 0
        # the words `most` trials can read, at least one
        scan = min(window, max(1, most * longest))
        trials, read, cut = _block(words[pos:pos + scan], n, s, runs,
                                   lengths, k, most)
        pos += read
        decided = 0 if trials is None else len(trials[0])
        if decided:
            yield trials
            count -= decided
        del trials      # before the next pass builds its own
        # a cut pass is followed by one of twice its trials and two more,
        # the cut trial and the next, and any other by a full one
        most = min(2 * decided + 2 if cut else _TRIALS, count)


def _block(words, n, s, runs, lengths, k, most):
    """The (sizes, erased, messages) arrays of `_draws` of the next trials
    in `words`, at most `most`, up to the first rejected word, which is
    cut, or None where no trial comes before it; the words read; and
    whether one was cut.  The cut trial's words are moved in `words` so
    that the next pass reads it without its rejected words."""
    stop = len(words)
    # each word's size - 1 and the start of the trial after, were a trial
    # to start there, or stop + 1 where it runs past the words; the
    # trials' starts follow by pointer doubling, in log2(most) gathers
    jump = np.full(stop + 2, stop + 1)
    size = words * np.uint64(s)     # s = 1: integers(1, 2) reads none
    size >>= 32
    lengths.take(size.view(np.int64), out=jump[:stop], mode="clip")
    del size
    jump[:stop] += np.arange(stop)
    np.minimum(jump, stop + 1, out=jump)
    start, after = np.zeros(1, np.int64), jump
    while len(start) < most:
        start = np.concatenate([start, after.take(start)])
        if len(start) >= most or start[-1] > stop:
            break
        after = after.take(after)
    ends = jump.take(start[:most])
    del jump, after
    c = np.searchsorted(ends, stop, "right")    # the trials in the words
    row = (words.take(start[:c]) * np.uint64(s) >> 32).view(np.int64)
    bound = np.concatenate([[0], ends[:c]])
    # every word's span, first + step * (its place in its run), built
    # in place, as these arrays are the pass's largest
    first, step, length = runs.take(row, axis=1).reshape(3, -1)
    span = np.repeat(step, length)
    span *= np.arange(bound[-1])
    first -= step * (np.cumsum(length) - length)
    span += np.repeat(first, length)
    del first, step, length
    span = span.view(np.uint64)
    product = words[:bound[-1]] * span
    # Lemire's rejection, (w span) mod 2**32 < 2**32 mod span, can
    # hold only below span: the exact test reads those words alone
    low = product & 0xFFFFFFFF
    suspect = np.flatnonzero(low < span)
    rejected = suspect[low[suspect] < (1 << 32) % span[suspect]]
    del low, span
    cut = len(rejected) > 0
    read = int(bound[-1])
    if cut:     # numpy reads the next word at the same span
        c = np.searchsorted(bound, rejected[0], "right") - 1
        read, x, end = bound[c], rejected[0], bound[c + 1]
        # the words after x that the cut trial's draws from x on read: the
        # next ones, or where x is a message word, whose span q is that of
        # each later word of the trial, the first ones numpy accepts
        drawn = np.arange(1, end - x + 1)
        if x >= end - k:
            q = runs[0, 0, 3]
            low = words[x:] * np.uint64(q) & 0xFFFFFFFF
            accepted = np.flatnonzero(low >= (1 << 32) % q)[:end - x]
            if len(accepted) == end - x:
                drawn = accepted
        # the trial is read again, its rejected words dropped: its words
        # move up to its last one
        last = x + drawn[-1]
        moved = np.concatenate([words[read:x], words[x + drawn[:-1]]])
        read = int(last) - len(moved)
        words[read:last] = moved
        row, bound = row[:c], bound[:c + 1]
    if not len(row):
        return None, read, cut
    product >>= 32
    value = product.view(np.int64)
    size = row + 1
    first = bound[:-1] + (s > 1)    # each trial's first sample word
    tail = runs[1, :, 1].take(row) < 0      # numpy's tail branch
    # Floyd's draws, a row per draw and a column per trial: a value drawn
    # before is replaced by j, which no earlier draw can be
    column = np.arange(size.max())[:, None]
    chosen = column + first
    if len(value):          # else n = 1 and k = 0: no trial reads a word
        value.take(chosen, out=chosen, mode="clip")     # in place
    for c in range(1, size[~tail].max(initial=0)):
        repeat = (chosen[:c] == chosen[c]).any(axis=0)
        np.copyto(chosen[c], n - size + c, where=repeat)
    chosen[column >= size] = n      # past the sample: sorts last
    chosen[:, size == n] = column   # a sample of size n is every one
    for i, m in zip(np.flatnonzero(tail).tolist(), size[tail].tolist()):
        moved = {}          # the entries of arange(n) the shuffle moved
        for a, b in zip(range(n - 1, 0, -1),
                        value[first[i]:first[i] + m].tolist()):
            moved[a], moved[b] = moved.get(b, b), moved.get(a, a)
        chosen[:m, i] = [moved.get(a, a) for a in range(n - m, n)]
    chosen.sort(axis=0)
    message = value[bound[1:, None] - k + np.arange(k)]
    return (size, chosen.T, message), read, cut


def _runs(n, s, q, k):
    """The (3, s, 4) int64 table of a trial's span runs (first, step,
    length) by size - 1: its size word, sample, shuffle and message."""
    size = np.arange(1, s + 1)
    draws = np.minimum(size, n - 1)     # a span-1 draw reads no word
    tail = (size > n // 50) & (n > 10000)
    first, step, length = runs = np.zeros((3, s, 4), np.int64)
    first[:, 0], length[:, 0] = s, s > 1
    first[:, 1] = np.where(tail, n, n - draws + 1)
    step[:, 1], length[:, 1] = np.where(tail, -1, 1), draws
    first[:, 2], step[:, 2] = size, -1
    length[:, 2] = np.where(tail, 0, size - 1)
    first[:, 3], length[:, 3] = q, k
    return runs


def trial_campaign(code, r, t, trials, seed, trace=None):
    """Seeded random erasure trials; returns summary statistics.

    Pattern sizes are drawn uniformly from 1..t (capped at n).  Success
    rate must be 1.0 whenever t is at or below the certified tolerance.
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
    trial split from `_draws`' passes.  `campaign` gives the same summary
    and trace on whole arrays, and this route is its oracle.
    """
    # as ints: a numpy integer would overflow in the draws
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
        del coords, symbols     # before the next pass is drawn


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
    order, computed on whole arrays a pass of `_draws` at a time: the
    pass's messages are encoded by `linear._codewords`, in block products
    of at most _PRODUCT_BYTES, its trials planned together (`_plan`) on
    the arrays of `linear.recovery_table`, and each step of every
    schedule applied as one gather and one table lookup (`_repair`).  No
    call is made per trial: neither `code.encode`, `plan_repair` nor
    `execute_repair` runs, and `trace` gets a record made by the table's
    `step` for each traced step alone.

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
