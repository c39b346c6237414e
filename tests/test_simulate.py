import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dual_oracle
import slrc
import strategies
from slrc.cli import main
from slrc.construct import ConstructedCode
from slrc.errors import ParameterError
from slrc.linear import LinearCode, peel_table
from slrc.matrixio import save_matrix
from slrc.reference import reference_code
from slrc.simulate import execute_repair, plan_repair, trial_campaign
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
                                    [np.True_], None])
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
    r = code.params.r
    erased = data.draw(st.sets(st.integers(0, code.n - 1), max_size=8))
    schedule = plan_repair(code, erased, r)
    table = peel_table(code, r)
    for step in schedule.steps:
        assert any(rs is step for _, rs in table[step.repaired])


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


def _affine25():
    return strategies.build(4, 2, 2, 4, "affine", "vandermonde")


def _plain_reference():
    ref = reference_code()
    return LinearCode(ref.field, ref.H)


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
