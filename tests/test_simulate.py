import ast
import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
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
# JSON) and the `slrc simulate --trace` stdout, pinned as the per-trial
# route produces them.  Any change to the order or arguments of the
# three draws of a pass (sizes, erased sets, messages) changes both.
CAMPAIGN_PINS = {
    "reference-t4-s7": (reference_code, 3, 4, 7, 1.0, 0,
        "d55b4ab866cd69451a7a49c129d3747fb8813c5fff36ef94805625c4016c8985",
        "430a5130262f6f1643255343c5a9e4cdaf1eea4bb88e681d6ae87500d62021cd"),
    "reference-t16-s42": (reference_code, 3, 16, 42, 0.56, 88,
        "79872ed583e20e927cfed610816b6c748cb63ef8cf0f3781068b6d6cb95b489c",
        "a1bb0a084f9afb2b277bed0c82a6afad5ab358af1806839f8be7b307f9f458d5"),
    "affine25-t5-s3": (_affine25, 4, 5, 3, 0.985, 3,
        "d7f55e4f09bb0ca50d4fb36a20c2b18a5969f03db8b37d3fd52405d23b1e4298",
        "59542cb58d2367f8622dd89ea38b79f372eb18c22adbe2b93f32e9dcaa7f89f3"),
    # a matrix file without a params block, so the CLI needs --r and the
    # campaign encodes with a plain LinearCode
    "plain-t4-s5": (_plain_reference, 3, 4, 5, 1.0, 0,
        "30e8689d61645f1c222b7ab97f16a85fa0dcbaa2d426cf96105e3b5bdea2bace",
        "ad2a80c7f054fafd1e41f843183f27d31a35a619eb42d4a24567bd89325452a0"),
    # one code per field kind `GF.vsum` treats apart: an odd prime, a
    # characteristic-2 field with m = 3, and an odd prime power (two
    # base-p digits per symbol)
    "gf5-t4-s2": (_complete_graph(5), 3, 4, 2, 1.0, 0,
        "6963cc301a6c5f21a33c2b111b3d2b779b8e20f589d32ec73c6767e1f0b8c029",
        "a0b596e14f6186dbcc14871823ea1b09ba4cdbdac48afd5234d8d908be145c7d"),
    "gf8-t4-s3": (_complete_graph(8), 3, 4, 3, 1.0, 0,
        "a4a18d3d17e20ce33f7dcdfce1e13f8281badb03484897bd22eb1942ddc9ce6a",
        "fabd29080ae14e3f348b0e15808c659f3b622f8efd3e5ab16a36cf9db837b010"),
    "gf9-t10-s9": (_complete_graph(9), 3, 10, 9, 0.915, 17,
        "ab1db3de4ba721cd2dcffe6fc934aea6e9bceda3fc4d4f1ee7b2f0403317df0b",
        "0524e458a9cd54f9accd6aebc9d8812aa9ac439b6481c53316efec45aa280f73"),
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


# -- the campaign's draws: the pass-level contract of `_draws`, held by
# numpy's own calls, chi-square tests of its marginals and, at the first
# failing size, the exact share of stuck patterns --------------------------

def _passes(seed, n, t, q, k, trials):
    """The passes of `_draws`, once each has its shapes: a row of erased
    coordinates per trial, sorted, distinct and padded with n, as wide as
    the pass's largest size, and a row of k message symbols."""
    for sizes, erased, messages in _draws(seed, n, t, q, k, trials):
        m, width = erased.shape
        assert m == len(sizes) <= simulate._TRIALS and width == sizes.max()
        assert messages.shape == (m, k)
        assert ((erased == n) == (np.arange(width) >= sizes[:, None])).all()
        assert (np.diff(erased, axis=1)[erased[:, 1:] < n] > 0).all()
        yield sizes, erased, messages


def test_draws_are_the_pass_level_numpy_calls():
    # per pass, on one generator: the sizes, a permutation of arange(n)
    # per trial, whose first `size` entries are its erased set, and the
    # messages; 2,500 trials are passes of 1,024, 1,024 and 452
    n, t, q, k = 16, 5, 4, 6
    rng = np.random.default_rng(7)
    got = list(_passes(7, n, t, q, k, 2500))
    assert [len(sizes) for sizes, _, _ in got] == [1024, 1024, 452]
    for sizes, erased, messages in got:
        m = len(sizes)
        assert (sizes == rng.integers(1, t + 1, m)).all()
        order = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        assert [row[row < n].tolist() for row in erased] == [
            sorted(row[:size]) for row, size in zip(order.tolist(),
                                                    sizes.tolist())]
        assert (messages == rng.integers(0, q, (m, k))).all()


# chi-square thresholds at p = 1e-6 for 4, 24 and 3 degrees of freedom
CHI2_SIZES, CHI2_COORDINATES, CHI2_SYMBOLS = 33.4, 72.2, 30.7


def _chi2(counts):
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2).sum() / expected)


def test_draws_are_uniform():
    # 200,000 trials of the affine n = 25 shape (t = 5, q = 4, k = 16):
    # sizes uniform on 1..5, coordinates erased equally often (a trial's
    # coordinates are distinct, which only narrows the statistic) and
    # message symbols uniform on 0..3
    n, t, q, k = 25, 5, 4, 16
    sizes = np.zeros(t, np.int64)
    coordinates = np.zeros(n + 1, np.int64)     # and the pad, n
    symbols = np.zeros(q, np.int64)
    for drawn, erased, messages in _passes(41, n, t, q, k, 200_000):
        sizes += np.bincount(drawn - 1, minlength=t)
        coordinates += np.bincount(erased.ravel(), minlength=n + 1)
        symbols += np.bincount(messages.ravel(), minlength=q)
    assert sizes.sum() == 200_000 and symbols.sum() == 200_000 * k
    assert coordinates[:n].sum() == sizes @ np.arange(1, t + 1)
    assert _chi2(sizes) < CHI2_SIZES
    assert _chi2(coordinates[:n]) < CHI2_COORDINATES
    assert _chi2(symbols) < CHI2_SYMBOLS


def _stuck_patterns(masks, n, size):
    """The patterns of `size` that peeling on per-coordinate helper
    bitmasks leaves with a coordinate it cannot repair."""
    stuck = 0
    for pattern in itertools.combinations(range(n), size):
        left, missing = list(pattern), sum(1 << i for i in pattern)
        while left:
            i = next((i for i in left
                      if any(not m & missing for m in masks[i])), None)
            if i is None:
                break
            left.remove(i)
            missing ^= 1 << i
        stuck += bool(left)
    return stuck


def test_campaign_fails_at_the_exact_share_of_stuck_patterns():
    # affine n = 25 at r = 4 has t* = 3, and brute-force peeling finds
    # 100 stuck patterns of size 4 and 2,100 of size 5, so a trial at
    # t = 5 fails with p = (100 / C(25, 4) + 2100 / C(25, 5)) / 5; the 20
    # seeds were fixed before their counts were seen, and their 120,000
    # trials must fail 120,000 p = 1,138.34 times within 4.9 standard
    # deviations, 974..1,302, a two-sided p of about 1e-6
    code = _affine25()
    masks = dual_oracle.helper_masks(
        dual_oracle.rowspace_words(code.field, code.H, 5), code.n)
    stuck = [_stuck_patterns(masks, code.n, size) for size in range(1, 6)]
    assert stuck == [0, 0, 0, 100, 2100]
    p = sum(a / math.comb(code.n, size)
            for size, a in enumerate(stuck, 1)) / 5
    mean = 120_000 * p
    failures = sum(campaign(code, 4, 5, 6000, seed)["failure_count"]
                   for seed in range(4100, 4120))
    assert abs(failures - mean) < 4.9 * math.sqrt(mean * (1 - p)), failures


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
    # 8,000 trials run full passes of _TRIALS and a partial last one
    small, large = peak(8000), peak(80000)
    assert abs(large - small) < 4096, (small, large)


def test_draws_pass_is_bounded_in_bytes():
    # at n = 10,001 a pass's (trials, n) permutation of 8-byte entries
    # stays within _PRODUCT_BYTES, 13 trials a pass; a pass of 100 trials
    # would hold 8 MB; beside it, arange(n) and the pass's own arrays
    n = 10_001
    next(_draws(0, n, 300, 4, 3, 1))    # numpy's one-time allocations
    tracemalloc.start()
    try:
        passes = [len(sizes) for sizes, _, _ in _passes(2, n, 300, 4, 3, 100)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulate._PRODUCT_BYTES + 8 * n + 65_536, peak
    most = simulate._PRODUCT_BYTES // (8 * n)
    assert passes == [most] * (100 // most) + [100 % most]


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
    complete = [plan_repair(code, erased, 3).complete for erased, _ in
                simulate._split(_draws(42, 16, 16, 4, 6, 100), 16)]
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

    # 1,100 trials run a full pass of _TRIALS, as 11,000 do
    small, _ = peak(1100)
    large, stats = peak(11000)
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
    # affine n = 25 at t = 5, with the pass constant and with passes four
    # times as large: per trial, the pass's arrays within 400 bytes (its
    # size, erased row and 16 message symbols, 176; its codeword, missing
    # and value columns, 77; its steps' picks, 40; and their temporaries),
    # as its 200-byte permutation is dropped once drawn, and one block
    # product within 512 KiB: _PRODUCT_BYTES is 1 MiB at the 32 bytes an
    # entry that `_codeword_rows` counts, where an index, `take`'s intp
    # copy of it and the product take 10; an unbounded product, 1,440
    # bytes a trial, passes neither limit
    code = _affine25()
    campaign(code, 4, 5, 10, 0)         # the code's tables
    monkeypatch.setattr(simulate, "_TRIALS", grow * simulate._TRIALS)
    tracemalloc.start()
    try:
        stats = campaign(code, 4, 5, 6000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["failure_count"] > 0
    limit = 400 * simulate._TRIALS + simulate._PRODUCT_BYTES // 2
    assert peak <= limit, (peak, limit)
