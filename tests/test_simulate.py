import ast
import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import tempfile
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dual_oracle
import slrc
import strategies
from slrc import cli, linear
from slrc.cli import main
from slrc.construct import ConstructedCode
from slrc.errors import FieldError, ParameterError
from slrc.field import GF
from slrc.linear import LinearCode, peel_table, recovery_table
from slrc.matrixio import save_matrix
from slrc.reference import reference_code
from slrc import simulate
from slrc.simulate import (_draws, campaign, execute_repair, plan_repair,
                           trial_campaign)
from slrc.verify import max_sequential_t


@pytest.fixture(scope="module")
def ref():
    return reference_code()


def test_plan_single_erasure(ref):
    sched = plan_repair(ref, {0}, 3)
    assert sched.complete
    assert len(sched.steps) == 1
    assert sched.steps[0].helpers == (1, 2, 6)


def test_plan_empty(ref):
    sched = plan_repair(ref, set(), 3)
    assert sched.complete and sched.steps == ()


def test_plan_parity_pair(ref):
    sched = plan_repair(ref, {6, 14}, 3)
    assert sched.complete
    repaired = [s.repaired for s in sched.steps]
    assert sorted(repaired) == [6, 14]
    word = ref.encode([1, 2, 3, 0, 1, 2])
    restored = execute_repair(ref, word, {6, 14}, sched)
    assert restored == word


def test_schedules_deterministic(ref):
    a = plan_repair(ref, {0, 3, 7}, 3)
    b = plan_repair(ref, {0, 3, 7}, 3)
    assert a == b


def test_execute_zero_codeword(ref):
    sched = plan_repair(ref, {2, 5}, 3)
    assert execute_repair(ref, (0,) * 16, {2, 5}, sched) == (0,) * 16


def test_all_certified_patterns_repairable(ref):
    t_star = max_sequential_t(ref, 3, cap=9).t_star
    word = ref.encode([1, 3, 2, 0, 2, 1])
    for size in range(1, t_star + 1):
        for pattern in itertools.combinations(range(16), size):
            sched = plan_repair(ref, set(pattern), 3)
            assert sched.complete, pattern
            assert execute_repair(ref, word, set(pattern), sched) == word
            assert all(len(s.helpers) <= 3 for s in sched.steps)


def test_uncertified_pattern_reports_stuck(ref):
    failing = max_sequential_t(ref, 3, cap=9).failing_pattern
    sched = plan_repair(ref, set(failing), 3)
    assert not sched.complete
    assert sched.residual


def test_non_codeword_input_fails_membership(ref):
    word = list(ref.encode([1, 0, 2, 3, 1, 0]))
    word[5] = (word[5] + 1) % 4  # corrupt a surviving symbol
    sched = plan_repair(ref, {0}, 3)
    restored = execute_repair(ref, tuple(word), {0}, sched)
    assert any(dual_oracle.syndrome(ref.field, ref.H, restored))


def test_campaign_certified_success(ref):
    stats = trial_campaign(ref, 3, t=4, trials=300, seed=7)
    assert stats["success_rate"] == 1.0
    assert stats["mean_helpers_per_repair"] <= 3


def test_campaign_all_erased_fails_big_patterns(ref):
    stats = trial_campaign(ref, 3, t=16, trials=200, seed=3)
    assert stats["success_rate"] < 1.0


def test_campaign_deterministic(ref):
    a = trial_campaign(ref, 3, t=5, trials=100, seed=42)
    b = trial_campaign(ref, 3, t=5, trials=100, seed=42)
    assert a == b


def test_campaign_cross_checks_verifier(ref):
    # at t* + 1 any failed trial must be a genuinely stuck pattern
    stats = trial_campaign(ref, 3, t=5, trials=500, seed=11)
    from slrc.verify import check_sequential
    for failure in stats["failures"]:
        erased = [i - 1 for i in failure["erased"]]
        rep = check_sequential(ref, 3, len(erased))
        assert not rep.holds or "residual" not in failure


@pytest.mark.parametrize("erased", [{16}, {-1}, {3, 16}, {-1, 3}])
def test_plan_rejects_coordinates_outside_the_code(ref, erased):
    with pytest.raises(ParameterError, match="0..15"):
        plan_repair(ref, erased, 3)


def test_plan_dedups_and_sorts_erased(ref):
    assert plan_repair(ref, [7, 0, 7], 3).erased == (0, 7)


@pytest.mark.parametrize("erased", [[1.0], ["0"], [np.float64(2)],
                                    [np.True_], None, [True], [False],
                                    [1, True]])
def test_plan_rejects_non_integer_coordinates(ref, erased):
    with pytest.raises(ParameterError, match="must be integers"):
        plan_repair(ref, erased, 3)


def test_plan_holds_python_ints(ref):
    schedule = plan_repair(ref, np.array([6, 0, 6]), 3)
    assert schedule == plan_repair(ref, [0, 6], 3)
    assert all(type(i) is int for i in schedule.erased)
    assert all(type(x) is int for s in schedule.steps
               for x in (s.repaired, *s.helpers, *s.coeffs))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.codes, st.data())
def test_plan_steps_are_the_peel_tables_own_records(code, data):
    # each step is the record of the recovery table's entry first[i] + j,
    # where entry j of coordinate i's peel_table row is the first helper
    # bitmask that avoids the coordinates still erased, and that entry's
    # helpers are the ones of that bitmask
    r = code.params.r
    erased = data.draw(st.sets(st.integers(0, code.n - 1), max_size=8))
    schedule = plan_repair(code, erased, r)
    masks, table = peel_table(code, r), recovery_table(code, r)
    left = sum(1 << i for i in erased)
    for step in schedule.steps:
        i = step.repaired
        j = next(j for j, m in enumerate(masks[i]) if not m & left)
        e = table.first[i] + j
        assert step == table.step(e)
        helpers = table.helpers[:, e].tolist()
        assert masks[i][j] == sum(1 << h for h in helpers if h < code.n)
        left ^= 1 << i


def test_one_repair_step_record_is_exported():
    assert slrc.RepairStep is slrc.linear.RepairStep
    assert not hasattr(slrc, "RecoverySet")


@pytest.mark.parametrize("erased", [{0, 5}, set(), {5}])
def test_execute_rejects_erasures_the_schedule_was_not_planned_for(
        ref, erased):
    with pytest.raises(ParameterError, match="differs from the schedule"):
        execute_repair(ref, (0,) * 16, erased, plan_repair(ref, {0}, 3))


@pytest.mark.parametrize("length", [15, 17])
def test_execute_rejects_a_word_of_the_wrong_length(ref, length):
    with pytest.raises(ParameterError, match="n = 16"):
        execute_repair(ref, (0,) * length, {0}, plan_repair(ref, {0}, 3))


@pytest.mark.parametrize("erased", [{16}, {-1}])
def test_execute_rejects_coordinates_outside_the_code(ref, erased):
    with pytest.raises(ParameterError, match="0..15"):
        execute_repair(ref, (0,) * 16, erased, plan_repair(ref, {0}, 3))


@pytest.mark.parametrize("erased", [(0.0, 6, 7), ("0", 6, 7), (0, 6, 7.5),
                                    (False, 6, 7), (0, 6, 7, True)])
def test_plan_and_execute_reject_non_integer_coordinates_alike(ref, erased):
    # execute_repair ended in a bare TypeError on each of the first three,
    # and both took a bool as coordinate 0 or 1
    schedule = plan_repair(ref, (0, 6, 7), 3)
    word = ref.encode([1, 2, 3, 0, 1, 2])
    message = f"erased coordinates must be integers, got {erased!r}"
    for call in (lambda: plan_repair(ref, erased, 3),
                 lambda: execute_repair(ref, word, erased, schedule)):
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


def test_execute_detects_a_step_that_reads_an_erased_coordinate(ref):
    # a hand-built schedule repairs 0 from 6 while 6 is still erased
    good = plan_repair(ref, (0, 6, 7), 3)
    first = good.steps[0]
    early = slrc.RepairStep(0, (6,) + first.helpers[1:], first.coeffs)
    bad = simulate.RepairSchedule(good.erased, (early,) + good.steps[1:],
                                  True)
    word = ref.encode([1, 2, 3, 0, 1, 2])
    with pytest.raises(RuntimeError,
                       match="reads coordinate 7 before it is repaired"):
        execute_repair(ref, word, (0, 6, 7), bad)


def test_execute_detects_a_schedule_that_leaves_erasures(ref):
    good = plan_repair(ref, (0, 6, 7), 3)
    short = simulate.RepairSchedule(good.erased, good.steps[:1], True)
    word = ref.encode([1, 2, 3, 0, 1, 2])
    with pytest.raises(RuntimeError, match=r"leaves \[6, 7\] unrepaired"):
        execute_repair(ref, word, (0, 6, 7), short)


@pytest.mark.parametrize("symbol", [-1, 4, 7, 1.5, None, "1", [1], 1.0, True,
                                    False, np.True_, np.float64(1)])
def test_execute_rejects_a_symbol_outside_the_field(ref, symbol):
    # coordinate 1 helps repair coordinate 0; -1 read as a table index
    # wrapped to the last entry and repaired coordinate 0 to 0, 7 ended in
    # an IndexError, 1.0 in a TypeError, and True came back as True
    word = list(ref.encode([1, 0, 0, 0, 0, 0]))
    word[1] = symbol
    with pytest.raises(FieldError, match=r"must lie in 0\.\.3"):
        execute_repair(ref, word, {0}, plan_repair(ref, {0}, 3))


def test_execute_takes_numpy_symbols(ref):
    # and returns Python ints, as for any other word
    word = ref.encode([1, 2, 3, 0, 1, 2])
    for given in (np.array(word), np.array(word, dtype=np.uint8),
                  list(map(np.int64, word))):
        restored = execute_repair(ref, given, {0, 5},
                                  plan_repair(ref, {0, 5}, 3))
        assert restored == word
        assert [type(a) for a in restored] == [int] * ref.n


def _affine25():
    return strategies.build(4, 2, 2, 4, "affine", "vandermonde")


def _plain_reference():
    ref = reference_code()
    return LinearCode(ref.field, ref.H)


def _complete_graph(q):
    """The code of `slrc construct --r 3 --delta 3 --ti 2 --q Q`."""
    return functools.partial(strategies.build, 3, 3, 2, q, "complete-graph",
                             "vandermonde")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Seeded 200-trial campaigns: the summary dict (SHA-256 of its sorted
# JSON) and the `slrc simulate --trace` stdout, pinned as the scalar
# per-trial loop produced them.  Any change to the order or arguments of
# the three draws per trial (size, erasures, message) changes both.
CAMPAIGN_PINS = {
    "reference-t4-s7": (reference_code, 3, 4, 7, 1.0, 0,
        "b521aa34db273a78333856a937752f4577f95eb6cceae42859f054cfc067bd9b",
        "97f4f00adcc01820b5cc323ef464213e75ef9e2f5ae9ff83eaf30fa43659484b"),
    "reference-t16-s42": (reference_code, 3, 16, 42, 0.6, 80,
        "a78a168be517d8a9bfd19949556e3f84a8608a58cec4371b97c5085a15487c51",
        "c6d88dbb43cd83b401cadbf1e1698b50715d26de8fa0aed2825aeedfc247b968"),
    "affine25-t5-s3": (_affine25, 4, 5, 3, 0.995, 1,
        "93857c6a6cbec8dd07b5da269c1e28564330867dc21016567307b17924ebee91",
        "20ee2c322f947d9e4c9e0f0bd62e5379da76d2c247084f1d0d8e6d504a5955d9"),
    # a matrix file without a params block, so the CLI needs --r and the
    # campaign encodes with a plain LinearCode
    "plain-t4-s5": (_plain_reference, 3, 4, 5, 1.0, 0,
        "8f685fdf7ffc8ec396518513082743886aeedd8a45ea93ab75a55a870b1259bf",
        "701890bb46b9f7560b464fa6e7d07b9614ffab41f0cdb21003b143ed3fdb55e6"),
    # one code per field kind `GF.vsum` treats apart: an odd prime, a
    # characteristic-2 field with m = 3, and an odd prime power (two
    # base-p digits per symbol)
    "gf5-t4-s2": (_complete_graph(5), 3, 4, 2, 1.0, 0,
        "02baad03e65b70482c15291c7fc6eb163157b346a74b97dbe39024efd2752e64",
        "a61acf77504f6c9245e64f296ac2527749d77dee7fbd254541d5ce246cc8fd81"),
    "gf8-t4-s3": (_complete_graph(8), 3, 4, 3, 1.0, 0,
        "5d10de48582a2f932c8a4a6bee1c3de8e562f1a3c936d15c08d76be3567d2683",
        "5a43f46c3ffea49d96fde024d7aae3a988a292263e97dc6d13ffd5bd3a3d3163"),
    "gf9-t10-s9": (_complete_graph(9), 3, 10, 9, 0.91, 18,
        "886ce5a33649a6cfebec9188201ffbcc168b30c0a61843e9bb385df4aa64f43c",
        "213aeb48c6766bed7bb9b32be08a2314a00da69a56cd0c69f449b6a2e4dfc0a2"),
}


@pytest.mark.parametrize("case", CAMPAIGN_PINS)
def test_seeded_campaign_bytes_are_pinned(tmp_path, capsys, case):
    make, r, t, seed, rate, failures, summary_sha, trace_sha = \
        CAMPAIGN_PINS[case]
    code = make()
    summary = trial_campaign(code, r, t, 200, seed)
    assert (summary["success_rate"], summary["failure_count"]) == (rate,
                                                                   failures)
    assert _sha(json.dumps(summary, sort_keys=True)) == summary_sha
    path = tmp_path / "code.json"
    save_matrix(code, path)
    argv = ["simulate", "--in", str(path), "--t", str(t), "--trials", "200",
            "--seed", str(seed), "--trace"]
    assert main(argv + ([] if isinstance(code, ConstructedCode)
                        else ["--r", str(r)])) == 0
    assert _sha(capsys.readouterr().out) == trace_sha


@pytest.mark.parametrize("q", [4, 5, 9, 256])
def test_the_shared_product_is_the_scalar_m_g(q):
    # campaign-shaped blocks of 1,024 messages, in the products that
    # _PRODUCT_BYTES allows (several) and in products of one message: each
    # column is m G by scalar dot products, and a codeword
    code = _complete_graph(q)()
    field, G = code.field, code.generator
    k, n = G.shape
    assert linear._codeword_rows(k, n - k, simulate._PRODUCT_BYTES) < 1024
    msgs = np.random.default_rng(q).integers(0, q, (1024, k))
    want = [dual_oracle.syndrome(field, G.T, m) for m in msgs.tolist()]
    for budget in (simulate._PRODUCT_BYTES, 1):
        words = linear._codewords(field, G, code._columns, msgs, budget)
        assert words.shape == (n, 1024) and words.dtype == field.dtype
        assert list(map(tuple, words.T.tolist())) == want
    assert not any(any(dual_oracle.syndrome(field, code.H, w)) for w in want)


@functools.lru_cache(maxsize=None)
def _certified(code):
    """The stopping-set search's verdict at the certified tolerance."""
    report = max_sequential_t(code, code.params.r, cap=code.params.t_claim)
    return report.complete and report.t_star == code.params.t_claim


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_encode_erase_repair_is_the_identity(data):
    code = data.draw(strategies.codes)
    p = code.params
    word = code.encode(data.draw(strategies.messages(code)))
    assert _certified(code)
    erased = data.draw(st.sets(st.integers(0, code.n - 1), min_size=1,
                               max_size=p.t_claim))
    schedule = plan_repair(code, erased, p.r)
    assert schedule.complete
    assert execute_repair(code, word, erased, schedule) == word


# -- the campaign's draws: numpy's own calls, as trial_campaign made them
# one trial at a time, are the oracle for the raw-stream reader ---------

def _numpy_trials(seed, n, t, q, k, trials):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        size = int(rng.integers(1, min(t, n) + 1))
        erased = tuple(sorted(
            rng.choice(n, size=size, replace=False).tolist()))
        yield size, erased, rng.integers(0, q, size=k).tolist()


def _reader_trials(seed, n, t, q, k, trials):
    # the passes' trials, once each pass's arrays have their shapes: a
    # row of erased coordinates per trial, padded with n, as wide as the
    # pass's largest size, and a row of k message symbols
    for sizes, erased, messages in _draws(seed, n, t, q, k, trials):
        assert len(sizes) <= simulate._TRIALS
        assert erased.shape == (len(sizes), sizes.max())
        assert messages.shape == (len(sizes), k)
        for size, row, message in zip(sizes.tolist(), erased.tolist(),
                                      messages.tolist()):
            assert row[size:] == [n] * (len(row) - size)
            yield size, tuple(row[:size]), message


# (n, t, q, k): t = 1 draws no size (span 1), t = n reaches size = n (a
# Floyd draw of span 1, which reads no word), the message spans
# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of their words,
# and n = 3 * 2**30 a quarter of its sample words, q = 3, 7 and 1021
# divide no power of 2, k = 0 draws no message, n = 1 with k = 0 reads no
# word at all, the two benchmark shapes (the reference code at t = 4,
# affine n = 25 at t = 5), and n = 10001 draws sizes above n // 50 on
# numpy's tail-shuffle branch
DRAW_SHAPES = [(16, 1, 4, 6), (16, 16, 4, 6), (9, 9, 2, 3), (25, 5, 3, 10),
               (30, 30, 7, 5), (12, 4, 1021, 8), (20, 20, 2 ** 31 + 1, 4),
               (20, 3, 3 * 2 ** 30, 4), (3 * 2 ** 30, 3, 4, 2), (8, 8, 5, 0),
               (1, 1, 4, 0), (16, 4, 4, 6), (25, 5, 4, 16),
               (10001, 300, 4, 3)]


def _draws_match(shape, trials, seeds=range(5)):
    """The sizes drawn, once the reader matched numpy for every seed."""
    sizes = set()
    for seed in seeds:
        got = list(_reader_trials(seed, *shape, trials))
        assert got == list(_numpy_trials(seed, *shape, trials))
        sizes.update(size for size, _, _ in got)
    return sizes


@pytest.mark.parametrize("shape", DRAW_SHAPES, ids=str)
def test_draws_match_numpy_calls(shape):
    # 1,500 trials read more words than one refill leaves unread, so each
    # seed runs more than one block pass and some trial reads words of two
    # numpy calls; the largest size is drawn, which is n where t >= n
    assert min(shape[:2]) in _draws_match(shape, 1500)


def test_draws_match_numpy_calls_on_a_small_buffer(monkeypatch):
    # a 64-word window: a pass reads few trials, every refill keeps words
    # that a trial reads across two numpy calls, and a shape whose
    # longest trial is over 64 words widens the window to it; among the
    # passes, a trial ends on the last word a pass may read, and one
    # would run past it, so the pass leaves it to the next
    monkeypatch.setattr(simulate, "_WINDOW", 64)
    block, edges = simulate._block, set()

    def spy(words, n, s, runs, lengths, k, most):
        trials, read, cut = block(words, n, s, runs, lengths, k, most)
        decided = 0 if trials is None else len(trials[0])
        if not cut:
            edges.add("ends at the end" if read == len(words)
                      else "runs past" if decided < most else "full")
        return trials, read, cut

    monkeypatch.setattr(simulate, "_block", spy)
    for shape in DRAW_SHAPES:
        for seed in range(2):
            assert (list(_reader_trials(seed, *shape, 300))
                    == list(_numpy_trials(seed, *shape, 300)))
    assert {"ends at the end", "runs past"} <= edges


# (16, 4, 4, 6) on words that are all 0: each trial is size 1 (one size
# word), erases coordinate 0 (one sample word) and sends six 0 symbols,
# eight words that no span rejects
@pytest.mark.parametrize("words,trials", [(16, 2), (15, 1), (8, 1), (7, 0)])
def test_a_pass_decides_the_trials_its_words_hold(words, trials):
    # 16 and 8 words: the last trial ends on the last word; 15 and 7: it
    # would run past them, so the pass leaves it, or returns None
    runs = simulate._runs(16, 4, 4, 6)
    got, read, cut = simulate._block(np.zeros(words, np.uint32), 16, 4, runs,
                                     runs[2].sum(axis=1), 6, 4)
    assert (read, cut) == (8 * trials, False)
    if not trials:
        assert got is None
        return
    sizes, erased, messages = got
    assert sizes.tolist() == [1] * trials and erased.tolist() == [[0]] * trials
    assert messages.tolist() == [[0] * 6] * trials


def _passes(words, n, t, q, k):
    """The trials that passes of `_block` of at most three trials decide
    on a copy of `words`, and the passes cut."""
    s = min(t, n)
    runs = simulate._runs(n, s, q, k)
    words, pos, trials, cuts = words.copy(), 0, [], 0
    while True:
        got, read, cut = simulate._block(words[pos:], n, s, runs,
                                         runs[2].sum(axis=1), k, 3)
        pos, cuts = pos + read, cuts + cut
        if got is None and not cut:
            return trials, cuts
        if got is not None:
            trials += [(size, tuple(row[:size]), tuple(message))
                       for size, row, message in zip(*map(np.ndarray.tolist,
                                                         got))]


# a 0 word is rejected at every span that is not a power of 2: at n = 12
# and t = 3 it is rejected as a size word (span 3) and as a sample word
# (spans 10..12), and as a message word at q = 5, not at q = 4
@pytest.mark.parametrize("where,q", [("size", 5), ("sample", 5),
                                     ("message", 5), ("message", 4)])
def test_a_rejected_word_is_dropped_and_its_trial_read_again(where, q):
    n, t, k = 12, 3, 2
    # words that no span of the shape rejects
    words = np.random.default_rng(3).integers(0, 1 << 32, 200, np.uint32)
    rejected = np.zeros(len(words), bool)
    for span in [*range(2, n + 1), q]:      # t = 3 among them
        rejected |= (words * np.uint64(span)) % (1 << 32) < (1 << 32) % span
    words = words[~rejected]
    clean, cuts = _passes(words, n, t, q, k)
    assert cuts == 0 and len(clean) > 10
    # the 0 goes into the third trial, so that a pass keeps two before it:
    # a trial reads a size word, size sample words, size - 1 shuffle words
    # and k message words
    first = sum(2 * size + k for size, _, _ in clean[:2]) + 1
    at = {"size": first - 1, "sample": first,
          "message": first + 2 * clean[2][0] - 1}[where]
    got, cuts = _passes(np.insert(words, at, 0), n, t, q, k)
    if q == 5:
        assert (got, cuts) == (clean, 1)
    else:       # the 0 is the third trial's first message symbol
        assert cuts == 0 and got[:2] == clean[:2] and got[2][2][0] == 0


@pytest.mark.parametrize("shape", [(16, 4, 4, 6), (25, 5, 4, 16)], ids=str)
def test_block_reader_memory_does_not_grow_with_trials(shape):
    def peak(trials):
        tracemalloc.start()
        try:
            for _ in _draws(1, *shape, trials):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)           # numpy's one-time allocations
    # 8,000 trials run passes of the full _TRIALS after a first one
    small, large = peak(8000), peak(80000)
    assert abs(large - small) < 4096, (small, large)


# numpy's integers(0, span) as a campaign draws it: five message symbols
# of q = span in each of 1,000 trials (at span 1, the size of t = 1)
@pytest.mark.parametrize("span", [1, 2, 3, 4, 7, 1021, 2 ** 31 + 1,
                                  3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32])
def test_below_and_integers_match_numpy_integers(span):
    _draws_match((12, 1, 4, 5) if span == 1 else (12, 4, span, 5), 200)


# seeds whose first trial draws size = t, where a sample reads thousands
# of words, so a few trials a seed reach it for certain
_LONG_SEEDS = {(10000, 5000): (757, 6636), (10001, 10001): (757, 7431)}


# numpy's choice(n, size, replace=False) as a campaign draws it at
# t = size, for sizes 1..size: Floyd's algorithm and a shuffle, or, when
# n > 10000, a partial shuffle of arange(n) for sizes above n // 50; the
# two largest sizes are drawn where a sample is short, at (10001, 201)
# and (20000, 401) one on either side of that branch, and (10001, 10001)
# draws a sample of size n on the tail branch (n - 1 shuffle words)
@pytest.mark.parametrize("n,size", [(1, 1), (16, 16), (10000, 5000),
                                    (10001, 200), (10001, 201),
                                    (10001, 10001), (20000, 401)])
def test_sample_matches_numpy_choice(n, size):
    seeds = _LONG_SEEDS.get((n, size))
    if seeds:
        assert size in _draws_match((n, size, 4, 3), 3, seeds)
    else:
        assert {size - 1, size} - {0} <= _draws_match((n, size, 4, 3), 300)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, [1, 2], True, False])
def test_campaign_rejects_a_seed_that_is_not_a_non_negative_integer(
        ref, seed):
    with pytest.raises(ParameterError, match="seed must be (>= 0|an integer), "
                       f"got {re.escape(repr(seed))}$"):
        trial_campaign(ref, 3, 4, 10, seed)


def test_campaign_refuses_a_code_with_no_coordinates():
    # a trial erases at least one coordinate
    code = LinearCode(GF(4), np.zeros((0, 0), np.int64))
    with pytest.raises(ParameterError, match="code length n must be >= 1"):
        trial_campaign(code, 2, 2, 5, 0)


def test_campaign_takes_a_numpy_integer_seed(ref):
    assert (trial_campaign(ref, 3, 4, 50, np.int64(7))
            == trial_campaign(ref, 3, 4, 50, 7))


def test_campaign_calls_encode_plan_execute_once_per_trial(monkeypatch):
    # the benchmark's repair oracle replays a campaign through these names
    code, calls = _plain_reference(), []

    def recorder(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(code, "encode", recorder("encode", code.encode))
    for name in ("plan_repair", "execute_repair"):
        monkeypatch.setattr(simulate, name,
                            recorder(name, getattr(simulate, name)))
    stats = trial_campaign(code, 3, 16, 100, 42)
    want = []
    complete = [plan_repair(code, erased, 3).complete
                for _, erased, _ in _numpy_trials(42, 16, 16, 4, 6, 100)]
    for done in complete:
        want += ["encode", "plan_repair"] + ["execute_repair"] * done
    assert calls == want
    assert stats["failure_count"] == complete.count(False) > 0


def test_campaign_memory_does_not_grow_with_failed_trials(ref):
    # about 40% of t = 16 trials fail, and the summary lists ten of them
    def peak(trials):
        trial_campaign(ref, 3, 16, 10, 0)       # builds the shared tables
        tracemalloc.start()
        try:
            stats = trial_campaign(ref, 3, 16, trials, 1)
            return tracemalloc.get_traced_memory()[1], stats
        finally:
            tracemalloc.stop()

    small, _ = peak(800)
    large, stats = peak(8000)
    assert stats["failure_count"] > 2000 and len(stats["failures"]) == 10
    assert large - small < 50_000, (small, large)


def test_plan_gives_one_schedule_per_erased_set(ref):
    first = plan_repair(ref, [9, 2, 4, 2], 3)
    assert plan_repair(ref, (2, 4, 9), 3) == first
    assert plan_repair(ref, np.array([4, 9, 2]), 3) == first


def test_plan_validates_erasures_on_every_call(ref):
    plan_repair(ref, [1], 3)
    with pytest.raises(ParameterError, match="must be integers"):
        plan_repair(ref, [1.0], 3)      # hashes like (1,)
    plan_repair(ref, [15], 3)
    with pytest.raises(ParameterError, match="0..15"):
        plan_repair(ref, [15, 16], 3)


def _own_records(schedule, records):
    return all(any(rs == step for rs in records[step.repaired])
               for step in schedule.steps)


def test_plan_follows_the_current_code_and_r():
    code = reference_code()
    first = plan_repair(code, {0, 6}, 3)
    plan_repair(_affine25(), {0, 6}, 4)         # another code's table
    again = plan_repair(code, {0, 6}, 3)        # code's table, rebuilt
    assert again == first and again is not first
    assert again.complete and _own_records(
        again, linear.all_recovery_sets(code, 3))
    # the same set at another r is planned on that r's table
    assert not plan_repair(code, {0, 6}, 2).complete
    assert plan_repair(code, {0, 6}, 3).complete


def test_simulate_keeps_no_module_level_memo():
    # the tables live in their own one-entry caches, so no name is rebound
    tree = ast.parse(inspect.getsource(simulate))
    assert not hasattr(simulate, "_memo")
    assert not any(isinstance(node, (ast.Global, ast.Nonlocal))
                   for node in ast.walk(tree))


def test_plan_holds_when_threads_interleave(ref, monkeypatch):
    # two threads plan at r = 2 and two at r = 3 on the same few sets, so
    # the one-entry memos of the peel table and the recovery table change
    # under each other, and each plan sleeps between reading the tables
    # and picking on them: a pick read off another r's table would give
    # a plan at the wrong r
    patterns = [(0, 6), (1, 2), (3, 9), (4, 5), (7, 8), (10, 11)]
    want = {(p, r): plan_repair(ref, p, r) for p in patterns for r in (2, 3)}
    assert all(want[p, 2] != want[p, 3] for p in patterns)
    greedy = simulate._greedy

    def slow_greedy(*args):
        time.sleep(1e-4)
        return greedy(*args)
    monkeypatch.setattr(simulate, "_greedy", slow_greedy)
    wrong = []

    def work(r):
        for p in patterns * 50:
            if plan_repair(ref, p, r) != want[p, r]:
                wrong.append((p, r))

    threads = [threading.Thread(target=work, args=(r,)) for r in (3, 2, 3, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# -- the array route: `campaign`, which `slrc simulate` runs, against the
# per-trial route `trial_campaign` as its oracle ---------------------------

def _simulate_stdout(code, r, t, trials, seed, route):
    """`slrc simulate --trace` stdout on the code's matrix file, with
    `route` in place of the CLI's campaign."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        save_matrix(code, path)
        argv = ["simulate", "--in", path, "--r", str(r), "--t", str(t),
                "--trials", str(trials), "--seed", str(seed)]
        with mock.patch.object(cli, "campaign", route), \
                contextlib.redirect_stdout(out):
            assert main(argv + ["--trace"]) == 0
    return out.getvalue()


# codes beside the constructed ones: dimension 0 (every coordinate has a
# recovery set with no helper), and n = 1 of dimension 0 and of dimension
# 1 (no recovery set, so every trial is stuck)
_EDGE_CODES = [LinearCode(GF(3), np.eye(3, dtype=np.int64)),
               LinearCode(GF(2), [[1]]),
               LinearCode(GF(5), np.zeros((0, 1), np.int64))]


def _codes_over(q):
    return st.sampled_from([point for point in strategies.ADMISSIBLE
                            if point[3] == q]).map(
        lambda point: strategies.build(*point))


def _routes_agree(code, r, data):
    # t up to n + 2, so t > n and stuck trials; up to 700 trials, in
    # one pass of _TRIALS or in passes of 256 with a partial last one
    t = data.draw(st.integers(1, code.n + 2), label="t")
    trials = data.draw(st.integers(1, 700), label="trials")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    most = data.draw(st.sampled_from([simulate._TRIALS, 256]), label="pass")
    got, want = [], []
    with mock.patch.object(simulate, "_TRIALS", most):
        summary = campaign(code, r, t, trials, seed, trace=got.append)
        assert summary == trial_campaign(code, r, t, trials, seed,
                                         trace=want.append)
        assert got == want
        if data.draw(st.booleans(), label="through the CLI"):
            assert (_simulate_stdout(code, r, t, trials, seed, campaign)
                    == _simulate_stdout(code, r, t, trials, seed,
                                        trial_campaign))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_campaign_equals_the_per_trial_route(q, data):
    code = data.draw(_codes_over(q), label="code")
    _routes_agree(code, code.params.r, data)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(code=st.sampled_from(_EDGE_CODES), r=st.integers(1, 3),
       data=st.data())
def test_campaign_equals_the_per_trial_route_on_edge_codes(code, r, data):
    _routes_agree(code, r, data)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(strategies.codes, st.integers(1, 4), st.data())
def test_array_planner_picks_the_greedy_steps(code, rows, data):
    # the planner's entries for a batch of erased sets are the records
    # plan_repair takes, stuck or not; `rows` trials per chunk of a step
    r = code.params.r
    sets = data.draw(st.lists(st.sets(st.integers(0, code.n - 1),
                                      min_size=1, max_size=code.n),
                              min_size=1, max_size=12))
    missing = np.zeros((code.n + 1, len(sets)), bool)
    for i, erased in enumerate(sets):
        missing[list(erased), i] = True
    table = recovery_table(code, r)._replace(rows=rows)
    picks, stuck = simulate._plan(missing, table)
    for i, erased in enumerate(sets):
        schedule = plan_repair(code, erased, r)
        steps = [table.step(e) for e in picks[:, i].tolist() if e >= 0]
        assert steps == list(schedule.steps)
        assert stuck[i] == (not schedule.complete)
        assert (tuple(np.flatnonzero(missing[:, i]).tolist())
                == schedule.residual)


def test_records_are_made_only_for_the_steps_taken(monkeypatch):
    # a traced campaign makes one RepairStep per traced line and a plan
    # one per step, stuck or not; the table's other entries stay arrays
    made = []

    class Counted(linear.RepairStep):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)
    monkeypatch.setattr(linear, "RepairStep", Counted)
    code = _plain_reference()
    lines = _simulate_stdout(code, 3, 16, 200, 42, campaign).splitlines()
    traced = sum(line.startswith("repair c") for line in lines)
    assert len(made) == traced > 0
    # complete, stuck after one step, and stuck at once
    for erased in [(0, 1, 2, 6, 7), (0, 5, 10, 11, 12, 13), range(16)]:
        made.clear()
        schedule = plan_repair(code, erased, 3)
        assert len(made) == len(schedule.steps)
        assert all(type(step) is Counted for step in schedule.steps)


@pytest.mark.parametrize("case", CAMPAIGN_PINS)
def test_simulate_prints_the_pins_without_per_trial_calls(
        tmp_path, capsys, monkeypatch, case):
    make, r, t, seed, _, _, summary_sha, trace_sha = CAMPAIGN_PINS[case]
    code = make()
    path = tmp_path / "code.json"
    save_matrix(code, path)

    def refuse(*args):
        raise AssertionError("a per-trial call")
    for name in ("plan_repair", "execute_repair"):
        monkeypatch.setattr(simulate, name, refuse)
    for cls in (LinearCode, ConstructedCode):
        monkeypatch.setattr(cls, "encode", refuse)
    argv = ["simulate", "--in", str(path), "--r", str(r), "--t", str(t),
            "--trials", "200", "--seed", str(seed)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert _sha(json.dumps(summary, sort_keys=True)) == summary_sha
    assert main(argv + ["--trace"]) == 0
    assert _sha(capsys.readouterr().out) == trace_sha


def test_campaign_refuses_an_h_off_its_layout_as_encode_does():
    # the reference code with column 13 zeroed: coordinates 1..6 are no
    # information set, refused before any trace call
    ref = reference_code()
    H = np.array(ref.H)
    H[:, 12] = 0
    code = ConstructedCode(ref.params, H)
    with pytest.raises(ParameterError, match="not an information set") as by:
        code.encode([0] * code.dimension)
    for route in (trial_campaign, campaign):
        calls = []
        with pytest.raises(ParameterError) as got:
            route(code, 3, 4, 10, 0, trace=calls.append)
        assert str(got.value) == str(by.value) and calls == []


def test_array_campaign_memory_does_not_grow_with_trials(ref):
    # at t = 16 about 40% of trials fail and the summary lists ten
    def peak(trials):
        campaign(ref, 3, 16, 10, 0)         # the code's dual words
        tracemalloc.start()
        try:
            stats = campaign(ref, 3, 16, trials, 1)
            return tracemalloc.get_traced_memory()[1], stats
        finally:
            tracemalloc.stop()

    small, _ = peak(8000)
    large, stats = peak(80000)
    assert stats["failure_count"] > 20000 and len(stats["failures"]) == 10
    assert large - small < 4096, (small, large)


def test_array_plan_working_set_is_bounded_in_bytes():
    # r = 7 gives the reference code 73,152 recovery sets, 4,572 a
    # coordinate: one pass's step over all of them at once would hold
    # two bools per (set, trial), about 37 MB for 256 trials
    code = reference_code()
    table = recovery_table(code, 7)
    assert len(table.coord) == 73152 and table.rows < 64
    sizes, erased, _ = next(simulate._draws(5, code.n, 4, 4, 6, 256))
    missing = np.zeros((code.n + 1, len(sizes)), bool)
    missing[erased, np.arange(len(sizes))[:, None]] = True
    missing[code.n] = False
    tracemalloc.start()
    try:
        simulate._plan(missing, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 256
    assert peak <= linear.DUAL_BYTE_BUDGET // 16 + 65_536, peak


@pytest.mark.parametrize("grow", [1, 4])
def test_campaign_pass_is_bounded_in_bytes(monkeypatch, grow):
    # affine n = 25 at t = 5, with the pass constants and with passes four
    # times as large: per window word, the raw-word buffer (8 bytes), the
    # start scan's three int64 arrays (24) and the pass's trial arrays (a
    # trial reads 22 words on average), and one block product within
    # 512 KiB: _PRODUCT_BYTES is 1 MiB at the 32 bytes an entry that
    # `_codeword_rows` counts, where an index, `take`'s intp copy of it and
    # the product take 10; an unbounded product, 1,440 bytes a trial,
    # passes neither limit
    code = _affine25()
    campaign(code, 4, 5, 10, 0)         # the code's tables
    monkeypatch.setattr(simulate, "_TRIALS", grow * simulate._TRIALS)
    monkeypatch.setattr(simulate, "_WINDOW", grow * simulate._WINDOW)
    tracemalloc.start()
    try:
        stats = campaign(code, 4, 5, 6000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["failure_count"] > 0
    limit = 48 * simulate._WINDOW + (1 << 19)
    assert peak <= limit, (peak, limit)
