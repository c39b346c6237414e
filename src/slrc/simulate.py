"""Erasure-and-repair simulation on concrete codewords.

Planning is greedy peeling with fixed tie-breaking (smallest repairable
coordinate first, lexicographically smallest helper set), which makes
schedules deterministic.  Each step is a `linear.RepairStep` record of
the `peel_table` that `verify`'s stopping-set search also reads, the
record itself and not a copy; the table's one-entry memo hands every
plan of a campaign the same table.  Within the certified tolerance the
peeling condition guarantees greedy never gets stuck, so no
backtracking is needed; outside it, a stuck state is a structured
result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linear import peel_table


@dataclass(frozen=True)
class RepairSchedule:
    erased: tuple
    steps: tuple
    complete: bool
    residual: tuple = ()   # coordinates left unrepaired when stuck


def _coordinate_error(code, erased):
    return ParameterError(f"erased coordinates must lie in 0..{code.n - 1}, "
                          f"got {sorted(erased)}")


def plan_repair(code, erased, r):
    """Greedy peeling plan for the erased coordinate set.

    Returns a RepairSchedule of Python ints; `complete` is False when
    peeling gets stuck, with the unrepairable residue recorded.
    Raises ParameterError for a coordinate that is not an integer or
    lies outside 0..n-1.
    """
    peel = peel_table(code, r)
    try:
        erased = tuple(sorted(set(map(operator.index, erased))))
    except TypeError:
        raise ParameterError(f"erased coordinates must be integers, "
                             f"got {erased!r}") from None
    if erased and (erased[0] < 0 or erased[-1] >= code.n):
        raise _coordinate_error(code, erased)
    remaining = list(erased)
    mask = 0
    for i in erased:
        mask |= 1 << i
    steps = []
    while remaining:
        # the first recovery set, by coordinate and then by helpers, that
        # avoids every erased coordinate
        step = next((step for i in remaining for helper_mask, step in peel[i]
                     if not helper_mask & mask), None)
        if step is None:
            return RepairSchedule(erased, tuple(steps), False,
                                  tuple(remaining))
        steps.append(step)
        remaining.remove(step.repaired)
        mask ^= 1 << step.repaired
    return RepairSchedule(erased, tuple(steps), True)


def execute_repair(code, codeword, erased, schedule: RepairSchedule):
    """Apply a schedule's linear combinations; returns the restored word.

    Raises ParameterError for a word whose length is not n, an erased
    coordinate outside 0..n-1 or an erased set other than the
    schedule's, and RuntimeError if a step reads a symbol that is still
    erased (that would be a planner bug, not a data property).
    """
    if len(codeword) != code.n:
        raise ParameterError(
            f"word length {len(codeword)} != n = {code.n}")
    add, mul = code.field.add_table.item, code.field.mul_table.item
    values = list(codeword)
    missing = set(erased)
    for i in missing:
        if not 0 <= i < code.n:
            raise _coordinate_error(code, missing)
        values[i] = None
    if missing != set(schedule.erased):
        raise ParameterError(f"erased {sorted(missing)} differs from the "
                             f"schedule's {list(schedule.erased)}")
    for step in schedule.steps:
        acc = 0
        for h, a in zip(step.helpers, step.coeffs):
            v = values[h]
            if v is None:
                raise RuntimeError(
                    f"schedule reads coordinate {h + 1} before it is repaired")
            if a and v:
                acc = add(acc, mul(a, v))
        values[step.repaired] = acc
        missing.discard(step.repaired)
    if missing:
        raise RuntimeError(f"schedule leaves {sorted(missing)} unrepaired")
    return tuple(values)


def trial_campaign(code, r, t, trials, seed, trace=None):
    """Seeded random erasure trials; returns summary statistics.

    Pattern sizes are drawn uniformly from 1..t (capped at n).  Success
    rate must be 1.0 whenever t is at or below the certified tolerance.
    `trace`, when given, is called with every executed RepairStep.
    Each message is `code.dimension` symbols, put through `code.encode`,
    which raises ParameterError in the first trial for an H off its layout.
    """
    if trials < 1 or t < 1:
        raise ParameterError(
            f"trials and t must be >= 1, got trials={trials}, t={t}")
    fld, n = code.field, code.n
    rng = np.random.default_rng(seed)
    successes = 0
    total_steps = 0
    total_helpers = 0
    failures = []
    for trial in range(trials):
        size = int(rng.integers(1, min(t, n) + 1))
        erased = tuple(sorted(
            rng.choice(n, size=size, replace=False).tolist()))
        word = code.encode(rng.integers(0, fld.q, size=code.dimension))
        schedule = plan_repair(code, erased, r)
        if schedule.complete:
            if trace is not None:
                for step in schedule.steps:
                    trace(step)
            if execute_repair(code, word, erased, schedule) == word:
                successes += 1
                total_steps += len(schedule.steps)
                total_helpers += sum(len(s.helpers) for s in schedule.steps)
            else:
                failures.append({"trial": trial, "erased": [i + 1 for i in erased],
                                 "reason": "mismatch after repair"})
        else:
            failures.append({"trial": trial, "erased": [i + 1 for i in erased],
                             "residual": [i + 1 for i in schedule.residual]})
    return {
        "trials": trials,
        "t": t,
        "seed": seed,
        "success_rate": successes / trials,
        "mean_schedule_length": total_steps / successes if successes else None,
        "mean_helpers_per_repair": (total_helpers / total_steps
                                    if total_steps else None),
        "failures": failures[:10],
        "failure_count": len(failures),
    }
