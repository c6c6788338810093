"""Determinism and coverage of the schedule fuzzer."""

import pytest

from repro.algorithms import MeanMicrobench
from repro.errors import ConfigError
from repro.harness.runner import run
from repro.sanitize import SanitizerProbe, ScheduleFuzzer, derive_seeds, fuzz_schedules


def test_derive_seeds_deterministic():
    assert derive_seeds(2010, 10) == derive_seeds(2010, 10)
    assert derive_seeds(2010, 10) != derive_seeds(2011, 10)


def test_derive_seeds_stable_under_count():
    """Seed i of a long campaign equals seed i of a short one."""
    assert derive_seeds(2010, 100)[:10] == derive_seeds(2010, 10)


def test_derive_seeds_rejects_negative_count():
    with pytest.raises(ConfigError):
        derive_seeds(0, -1)


def test_fuzzer_decision_stream_is_pure_function_of_seed():
    a, b = ScheduleFuzzer(42), ScheduleFuzzer(42)
    assert [a.queue_priority() for _ in range(20)] == [
        b.queue_priority() for _ in range(20)
    ]
    cands = list(range(8))
    assert [a.sm_tiebreak(cands) for _ in range(20)] == [
        b.sm_tiebreak(cands) for _ in range(20)
    ]
    assert a.decisions == b.decisions == 40


def test_sm_tiebreak_stays_in_candidates():
    fuzzer = ScheduleFuzzer(7)
    cands = [3, 11, 17]
    assert all(fuzzer.sm_tiebreak(cands) in cands for _ in range(50))


def test_fuzz_schedules_yields_fresh_derived_fuzzers():
    fuzzers = list(fuzz_schedules(2010, 5))
    assert [f.seed for f in fuzzers] == derive_seeds(2010, 5)
    assert all(f.decisions == 0 for f in fuzzers)


def _fuzzed_events(seed: int):
    probe = SanitizerProbe()
    result = run(
        MeanMicrobench(rounds=3, num_blocks_hint=8, threads_per_block=64),
        "gpu-lockfree",
        8,
        threads_per_block=64,
        fuzzer=ScheduleFuzzer(seed),
        probe=probe,
    )
    assert result.verified is True
    return result.total_ns, probe.barrier_events


def test_same_seed_replays_identical_schedule():
    assert _fuzzed_events(123) == _fuzzed_events(123)


def test_different_seeds_permute_event_order():
    total_a, events_a = _fuzzed_events(123)
    total_b, events_b = _fuzzed_events(456)
    # Fuzzing permutes same-time ordering, never virtual time itself.
    assert total_a == total_b
    assert events_a != events_b
    assert sorted(events_a, key=repr) == sorted(events_b, key=repr)
