"""Tests for the experiment runner."""

import pytest

from repro.algorithms import FFT, MeanMicrobench
from repro.errors import BarrierTimeoutError, ConfigError, OccupancyError
from repro.faults import FaultPlan, FaultSpec
from repro.harness import RaceMonitor, run
from repro.sanitize.sanitizer import SkewedMicrobench
from repro.sync import GpuLockFreeSync


@pytest.fixture
def micro():
    return MeanMicrobench(rounds=10, num_blocks_hint=8, threads_per_block=32)


class TestRun:
    def test_device_strategy_single_launch(self, micro):
        result = run(micro, "gpu-lockfree", 8)
        assert result.kernel_launches == 1
        assert result.verified is True
        assert result.violations == 0
        assert result.rounds == 10

    def test_host_strategy_one_launch_per_round(self, micro):
        result = run(micro, "cpu-implicit", 8)
        assert result.kernel_launches == 10
        assert result.verified is True
        assert result.violations == 0

    def test_strategy_instance_accepted(self, micro):
        result = run(micro, GpuLockFreeSync(), 8)
        assert result.strategy == "gpu-lockfree"

    def test_lockfree_needs_no_atomics_but_simple_does(self, micro):
        assert run(micro, "gpu-lockfree", 8).atomic_ops == 0
        assert run(micro, "gpu-simple", 8).atomic_ops == 8 * 10

    def test_null_strategy_skips_verification(self, micro):
        result = run(micro, "null", 8, verify=True)
        assert result.verified is None

    def test_total_ms_conversion(self, micro):
        result = run(micro, "gpu-lockfree", 8)
        assert result.total_ms == pytest.approx(result.total_ns / 1e6)

    def test_keep_device_exposes_trace(self, micro):
        result = run(micro, "gpu-lockfree", 8, keep_device=True)
        assert result.device is not None
        assert len(result.device.trace.spans("sync")) == 8 * 10
        assert run(micro, "gpu-lockfree", 8).device is None

    def test_trace_phase_totals_populated(self, micro):
        result = run(micro, "gpu-simple", 8)
        assert result.trace_compute_ns == 8 * 10 * 500
        assert result.trace_sync_ns > 0

    def test_oversubscribed_device_grid_rejected_up_front(self, micro):
        with pytest.raises(OccupancyError, match="deadlock"):
            run(micro, "gpu-simple", 31)

    def test_host_strategy_allows_more_blocks_than_sms(self):
        micro = MeanMicrobench(rounds=3, num_blocks_hint=40, threads_per_block=16)
        result = run(micro, "cpu-implicit", 40)
        assert result.verified is True

    def test_too_many_threads_rejected(self, micro):
        with pytest.raises(ConfigError, match="threads"):
            run(micro, "gpu-simple", 4, threads_per_block=4096)

    def test_default_threads_from_algorithm(self):
        fft = FFT(n=64)
        result = run(fft, "gpu-lockfree", 4)
        assert result.threads_per_block == FFT.default_threads

    def test_runs_are_deterministic(self, micro):
        a = run(micro, "gpu-tree-2", 12)
        b = run(micro, "gpu-tree-2", 12)
        assert a.total_ns == b.total_ns

    def test_monitor_can_be_disabled(self, micro):
        result = run(micro, "gpu-lockfree", 8, monitor_races=False)
        assert result.violations == -1

    @pytest.mark.parametrize(
        "num_blocks, kwargs, match",
        [
            (8, {"threads_per_block": 0}, "threads_per_block"),
            (8, {"threads_per_block": -32}, "threads_per_block"),
            (8, {"jitter_pct": -1.0}, "jitter_pct"),
            (8, {"jitter_pct": float("nan")}, "jitter_pct"),
            (8, {"jitter_pct": float("inf")}, "jitter_pct"),
            (2.5, {}, "num_blocks"),
            ("8", {}, "num_blocks"),
            (8, {"threads_per_block": 2.5}, "threads_per_block"),
            (8, {"threads_per_block": True}, "threads_per_block"),
            (8, {"threads_per_block": "8"}, "threads_per_block"),
            (8, {"jitter_seed": 2.5}, "jitter_seed"),
            (8, {"jitter_seed": True}, "jitter_seed"),
            (8, {"jitter_pct": "1"}, "jitter_pct"),
            (8, {"jitter_seed": "a"}, "jitter_seed"),
            (8, {"strategy": []}, "strategy"),
            (8, {"strategy": 3}, "strategy"),
            (8, {"config": "gtx280"}, "config"),
            (8, {"recover": 1}, "recover"),
            (8, {"recover": "yes"}, "recover"),
        ],
    )
    def test_bad_input_is_a_config_error_before_simulating(
        self, micro, monkeypatch, num_blocks, kwargs, match
    ):
        def no_device(*args, **kw):
            raise AssertionError("simulated a malformed configuration")

        monkeypatch.setattr("repro.harness.runner.Device", no_device)
        args = {"strategy": "gpu-lockfree", **kwargs}
        with pytest.raises(ConfigError, match=match):
            run(micro, num_blocks=num_blocks, **args)


class TestStallDetection:
    """A run armed with a fault plan turns the engine's drain check into
    a typed, recoverable :class:`BarrierTimeoutError`."""

    @staticmethod
    def skewed():
        return SkewedMicrobench(rounds=4, num_blocks_hint=8)

    def test_clean_armed_run_raises_nothing_and_costs_no_time(self):
        base = run(self.skewed(), "gpu-lockfree", 8)
        armed = run(self.skewed(), "gpu-lockfree", 8, faults=FaultPlan([]))
        assert armed.verified is True
        assert armed.total_ns == base.total_ns

    def test_slow_but_live_straggler_is_not_a_stall(self):
        """Pending events are progress: a block computing 50x slower
        keeps every other block parked at the barrier, yet finishes."""
        base = run(self.skewed(), "gpu-lockfree", 8)
        plan = FaultPlan([FaultSpec("straggler", block=2, factor=50.0)])
        slow = run(self.skewed(), "gpu-lockfree", 8, faults=plan)
        assert slow.verified is True
        assert slow.total_ns > 10 * base.total_ns
        assert plan.fired_kinds == ["straggler"]

    def test_stuck_list_names_the_injected_hang(self):
        plan = FaultPlan([FaultSpec("hang", block=1, round=0)])
        with pytest.raises(BarrierTimeoutError) as info:
            run(self.skewed(), "gpu-lockfree", 8, faults=plan)
        (reason,) = [r for name, r in info.value.stuck if name.endswith("/b1")]
        assert reason.startswith("injected hang: block 1")

    def test_hang_with_parked_warps_is_a_barrier_timeout(self):
        """gpu-lockfree-detailed parks its checker block's warps too; the
        drain sees them, so the hang is typed, at the time it stalled."""
        clean = run(self.skewed(), "gpu-lockfree-detailed", 8)
        plan = FaultPlan([FaultSpec("hang", block=5, round=0)])
        with pytest.raises(BarrierTimeoutError) as info:
            run(self.skewed(), "gpu-lockfree-detailed", 8, faults=plan)
        err = info.value
        assert any(name.endswith("/b1/w0") for name, _ in err.stuck)
        assert 0 < err.fired_at_ns < clean.total_ns
        assert err.faults == ["hang(block 5, round 0)"]


class TestRaceMonitor:
    def test_clean_sequence(self):
        mon = RaceMonitor(rounds=3, num_blocks=2)
        for r in range(3):
            for b in range(2):
                mon.record(r, b)
        assert mon.clean

    def test_detects_out_of_order_round(self):
        mon = RaceMonitor(rounds=2, num_blocks=2)
        mon.record(0, 0)
        mon.record(1, 0)  # block 0 races ahead of block 1's round 0
        assert not mon.clean
        assert mon.violations == [(1, 0, 1)]

    def test_broken_barrier_detected_through_simulator(self):
        """Under the null strategy with uneven compute, fast blocks enter
        later rounds while slow blocks lag — the monitor must see it."""

        class Uneven(MeanMicrobench):
            def round_cost(self, round_idx, block_id, num_blocks):
                return 100 * (1 + block_id)  # strongly skewed

        micro = Uneven(rounds=5, num_blocks_hint=6, threads_per_block=8)
        result = run(micro, "null", 6, verify=False)
        assert result.violations > 0
