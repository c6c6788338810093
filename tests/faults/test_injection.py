"""Tests for the device-layer fault injection hooks."""

import pytest

from repro.errors import BarrierTimeoutError, FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.harness.runner import run
from repro.sanitize.sanitizer import SkewedMicrobench


def micro(rounds=4, blocks=8):
    return SkewedMicrobench(rounds=rounds, num_blocks_hint=blocks)


def test_unarmed_device_has_no_fault_state():
    result = run(micro(), "gpu-lockfree", 8, keep_device=True)
    assert result.device.faults is None
    assert result.device.atomics.faulted_ops == 0
    assert result.faults_fired == 0


def test_straggler_slows_run_but_stays_correct():
    base = run(micro(), "gpu-lockfree", 8)
    plan = FaultPlan([FaultSpec("straggler", block=2, factor=4.0)])
    slow = run(micro(), "gpu-lockfree", 8, faults=plan)
    assert slow.verified is True
    assert slow.total_ns > base.total_ns
    assert slow.faults_fired == 1
    assert plan.fired_kinds == ["straggler"]


def test_spurious_wakeup_charges_latency_only():
    base = run(micro(), "gpu-lockfree", 8)
    plan = FaultPlan([FaultSpec("spurious-wakeup", block=1, count=6)])
    bumped = run(micro(), "gpu-lockfree", 8, faults=plan)
    assert bumped.verified is True
    assert bumped.total_ns >= base.total_ns
    assert plan.fired_kinds == ["spurious-wakeup"]


def test_hang_raises_typed_timeout_naming_the_fault():
    plan = FaultPlan([FaultSpec("hang", block=3, round=1)])
    with pytest.raises(BarrierTimeoutError) as info:
        run(micro(), "gpu-lockfree", 8, faults=plan)
    err = info.value
    assert err.strategy == "gpu-lockfree"
    assert any("injected hang" in reason for _, reason in err.stuck)
    assert any("hang" in d for d in err.faults)


def test_hang_never_escapes_as_deadlock():
    from repro.errors import DeadlockError

    for round_idx in range(4):
        plan = FaultPlan([FaultSpec("hang", block=0, round=round_idx)])
        try:
            run(micro(), "gpu-simple", 8, faults=plan)
        except BarrierTimeoutError:
            pass
        except DeadlockError as exc:  # pragma: no cover - the regression
            pytest.fail(f"DeadlockError escaped an armed run: {exc}")


def test_driver_kill_raises_typed_fault_error():
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=5_000)])
    with pytest.raises(FaultError, match="driver-kill"):
        run(micro(), "gpu-lockfree", 8, faults=plan)
    assert plan.fired_kinds == ["driver-kill"]


def test_driver_kill_after_kernel_end_dissipates():
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=10_000_000_000)])
    result = run(micro(), "gpu-lockfree", 8, faults=plan)
    assert result.verified is True
    assert plan.fired == []  # the kernel finished first


def test_atomic_drop_counts_faulted_op():
    # gpu-simple's barrier is built on atomicAdd, so a dropped store
    # starves the mutex count and the drain check must catch the stall.
    plan = FaultPlan([FaultSpec("atomic-drop", block=0)])
    with pytest.raises(BarrierTimeoutError):
        run(micro(), "gpu-simple", 8, faults=plan)
    assert plan.fired_kinds == ["atomic-drop"]


def test_mem_corrupt_on_lockfree_flag_store_stalls_and_is_caught():
    # gpu-lockfree's Arrayin flags travel through gwrite; corrupting the
    # store to zero means the checker block never sees the flag.
    plan = FaultPlan([FaultSpec("mem-corrupt", block=2)])
    with pytest.raises(BarrierTimeoutError):
        run(micro(), "gpu-lockfree", 8, faults=plan)
    assert plan.fired_kinds == ["mem-corrupt"]


def test_host_barrier_immune_to_hang():
    """The kernel boundary always synchronizes (paper §4.1): a 'hang'
    planned against a host-side barrier has no injection point."""
    plan = FaultPlan([FaultSpec("hang", block=3, round=1)])
    result = run(micro(), "cpu-implicit", 8, faults=plan)
    assert result.verified is True
    assert plan.fired == []


def test_fired_faults_carry_attempt_and_time():
    plan = FaultPlan([FaultSpec("straggler", block=0, factor=2.0)])
    run(micro(), "gpu-lockfree", 8, faults=plan)
    (fault,) = plan.fired
    assert fault.attempt == 1
    assert fault.at_ns >= 0
    assert "straggler" in fault.description
