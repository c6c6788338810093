"""Tests for the retry/degrade resilient runtime."""

import pytest

import repro
from repro.errors import BarrierTimeoutError, ConfigError, RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec
from repro.harness.resilient import DegradePolicy, RetryPolicy
from repro.sanitize.sanitizer import SkewedMicrobench


def micro(rounds=4, blocks=8):
    return SkewedMicrobench(rounds=rounds, num_blocks_hint=blocks)


def test_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff_factor=0.5)


def test_backoff_grows_exponentially():
    policy = RetryPolicy(backoff_ns=100, backoff_factor=2.0)
    assert [policy.backoff_for(a) for a in (1, 2, 3)] == [100, 200, 400]


def test_clean_run_passes_through_untouched():
    result = repro.run(micro(), "gpu-lockfree", 8, retry=RetryPolicy())
    assert result.verified is True
    assert result.attempts == 1
    assert result.degraded is False
    assert result.retry_overhead_ns == 0
    assert result.recovery == []
    assert result.recovered is False


def test_transient_kill_recovered_by_retry():
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=5_000)])
    result = repro.run(
        micro(), "gpu-lockfree", 8, faults=plan, retry=RetryPolicy()
    )
    assert result.verified is True
    assert result.attempts == 2
    assert result.degraded is False
    assert result.retry_overhead_ns == RetryPolicy().backoff_ns
    assert [e.kind for e in result.recovery] == ["retry"]
    assert result.recovered is True


def test_persistent_hang_degrades_to_host_barrier():
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    result = repro.run(
        micro(),
        "gpu-lockfree",
        8,
        faults=plan,
        retry=RetryPolicy(),
        degrade=DegradePolicy(),
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
    policy = RetryPolicy(max_attempts=2, backoff_ns=1_000)
    result = repro.run(micro(), "gpu-simple", 8, retry=policy, faults=plan)
    assert result.degraded is True
    assert result.retry_overhead_ns == 1_000
    assert result.total_ns > result.retry_overhead_ns


def test_degradation_disabled_raises_exhausted_with_history():
    plan = FaultPlan([FaultSpec("hang", block=1, round=0)])
    with pytest.raises(RetryExhaustedError) as info:
        repro.run(
            micro(),
            "gpu-lockfree",
            8,
            retry=RetryPolicy(max_attempts=2),
            degrade=DegradePolicy(enabled=False),
            faults=plan,
        )
    err = info.value
    assert err.strategy == "gpu-lockfree"
    assert err.attempts == 2
    assert len(err.history) == 2
    assert all("stalled at t=" in h for h in err.history)


def test_occupancy_error_degrades_immediately():
    """A grid that can never be co-resident skips the pointless retries
    and lands straight on the host barrier (which takes any size)."""
    result = repro.run(
        micro(blocks=64), "gpu-lockfree", 64, degrade=DegradePolicy()
    )
    assert result.verified is True
    assert result.degraded is True
    assert result.strategy == "cpu-implicit"
    assert result.attempts == 2  # one refusal + the fallback
    assert [e.kind for e in result.recovery] == ["degrade"]


def test_host_strategy_has_no_fallback():
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=100)])
    with pytest.raises(RetryExhaustedError):
        repro.run(
            micro(),
            "cpu-implicit",
            8,
            retry=RetryPolicy(max_attempts=1),
            faults=plan,
        )


def test_explicit_fallback_override():
    plan = FaultPlan([FaultSpec("hang", block=1, round=0)])
    result = repro.run(
        micro(),
        "gpu-lockfree",
        8,
        retry=RetryPolicy(max_attempts=1),
        degrade=DegradePolicy(fallback="cpu-explicit"),
        faults=plan,
    )
    assert result.degraded is True
    assert result.strategy == "cpu-explicit"


def test_facade_routes_to_resilient_path():
    """repro.run(..., retry=/degrade=) reaches the same runtime."""
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    result = repro.run(
        micro(),
        "gpu-lockfree",
        num_blocks=8,
        faults=plan,
        degrade=DegradePolicy(),
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
    """No retry=/degrade=: one attempt, so the stall surfaces as its
    own typed error, not as an exhausted retry budget."""
    plan = FaultPlan([FaultSpec("hang", block=2, round=1)])
    with pytest.raises(BarrierTimeoutError):
        repro.run(micro(), "gpu-lockfree", 8, faults=plan)
