"""Tests for the retry-then-degrade resilient runtime (``recover=True``)."""

import pytest

import repro
from repro.errors import BarrierTimeoutError, RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec
from repro.harness.resilient import BACKOFF_NS, MAX_ATTEMPTS
from repro.sanitize.sanitizer import SkewedMicrobench


def micro(rounds=4, blocks=8):
    return SkewedMicrobench(rounds=rounds, num_blocks_hint=blocks)


def test_clean_run_passes_through_untouched():
    result = repro.run(micro(), "gpu-lockfree", 8, recover=True)
    assert result.verified is True
    assert result.attempts == 1
    assert result.degraded is False
    assert result.retry_overhead_ns == 0
    assert result.recovery == []
    assert result.recovered is False


def test_transient_kill_recovered_by_retry():
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=5_000)])
    result = repro.run(
        micro(), "gpu-lockfree", 8, faults=plan, recover=True
    )
    assert result.verified is True
    assert result.attempts == 2
    assert result.degraded is False
    assert result.retry_overhead_ns == BACKOFF_NS
    assert [e.kind for e in result.recovery] == ["retry"]
    assert result.recovered is True


def test_persistent_hang_degrades_to_host_barrier():
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    result = repro.run(
        micro(),
        "gpu-lockfree",
        8,
        faults=plan,
        recover=True,
    )
    assert result.verified is True
    assert result.degraded is True
    assert result.degraded_from == "gpu-lockfree"
    assert result.strategy == "cpu-implicit"
    kinds = [e.kind for e in result.recovery]
    assert kinds == ["retry", "retry", "degrade"]
    assert result.attempts == 4  # 3 device tries + the fallback
    # every device attempt re-fired the hang
    assert result.faults_fired == 3


def test_degrade_result_includes_retry_overhead_in_total():
    plan = FaultPlan([FaultSpec("hang", block=0, round=0)])
    result = repro.run(micro(), "gpu-simple", 8, recover=True, faults=plan)
    assert result.degraded is True
    # two relaunches, the backoff doubling before the second
    assert result.retry_overhead_ns == BACKOFF_NS + 2 * BACKOFF_NS
    assert [e.at_ns for e in result.recovery] == [
        BACKOFF_NS, 3 * BACKOFF_NS, 3 * BACKOFF_NS
    ]
    assert result.total_ns > result.retry_overhead_ns


def test_exhausted_policy_raises_with_history():
    """A hang forces the fallback; four driver-kills outlast every
    attempt, the fallback's included."""
    plan = FaultPlan(
        [FaultSpec("hang", block=1, round=0)]
        + [FaultSpec("driver-kill", at_ns=100)] * 4
    )
    with pytest.raises(RetryExhaustedError) as info:
        repro.run(micro(), "gpu-lockfree", 8, recover=True, faults=plan)
    err = info.value
    assert err.strategy == "gpu-lockfree"
    assert err.attempts == MAX_ATTEMPTS + 1
    assert len(err.history) == MAX_ATTEMPTS + 1
    assert all("kernel killed mid-run" in h for h in err.history)
    assert err.history[-1].startswith("fallback cpu-implicit: ")


def test_occupancy_error_degrades_immediately():
    """A grid that can never be co-resident skips the pointless retries
    and lands straight on the host barrier (which takes any size)."""
    result = repro.run(
        micro(blocks=64), "gpu-lockfree", 64, recover=True
    )
    assert result.verified is True
    assert result.degraded is True
    assert result.strategy == "cpu-implicit"
    assert result.attempts == 2  # one refusal + the fallback
    assert [e.kind for e in result.recovery] == ["degrade"]


def test_host_strategy_has_no_fallback():
    # Host mode launches one kernel per round: four kills per attempt
    # outlast all three attempts, and nothing is left to degrade to.
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=100)] * 12)
    with pytest.raises(RetryExhaustedError) as info:
        repro.run(micro(), "cpu-implicit", 8, recover=True, faults=plan)
    assert info.value.attempts == MAX_ATTEMPTS
    assert not any(h.startswith("fallback") for h in info.value.history)


def test_facade_routes_to_resilient_path():
    """repro.run(..., recover=True) reaches the resilient runtime."""
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    result = repro.run(
        micro(),
        "gpu-lockfree",
        num_blocks=8,
        faults=plan,
        recover=True,
    )
    assert result.verified is True
    assert result.degraded is True
    assert result.strategy == "cpu-implicit"


def test_run_resilient_shim_retired():
    # The PR-3 deprecation shim was removed after its grace period: the
    # public surface only exposes the one repro.run entry now.
    assert not hasattr(repro, "run_resilient")
    assert not hasattr(repro.harness, "run_resilient")


def test_one_run_entry():
    assert repro.run is repro.harness.run is repro.harness.runner.run


def test_hang_without_policy_is_a_barrier_timeout():
    """No recover=True: one attempt, so the stall surfaces as its
    own typed error, not as an exhausted retry budget."""
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    with pytest.raises(BarrierTimeoutError):
        repro.run(micro(), "gpu-lockfree", 8, faults=plan)
