"""Tests for per-SM block placement."""

import pytest

from repro.errors import SimulationError
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.gpu.scheduler import SmPlacement


def run_kernel(blocks, shared=0, cost=500):
    device = Device()
    host = Host(device)
    sms_seen = {}

    def program(ctx):
        sms_seen[ctx.block_id] = ctx.sm_id
        yield from ctx.compute(cost)

    spec = KernelSpec(
        "k", program, grid_blocks=blocks, block_threads=64,
        shared_mem_per_block=shared,
    )

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()
    return device, sms_seen


class TestPlacementThroughKernels:
    def test_one_block_per_sm_under_full_shared_memory(self):
        """The paper's co-residency trick: 30 blocks land on 30 distinct SMs."""
        device, sms = run_kernel(30, shared=Device().config.shared_mem_per_sm)
        assert sorted(sms.values()) == list(range(30))

    def test_waves_reuse_freed_sms(self):
        """90 blocks at 1/SM: three waves, each SM hosts exactly 3 blocks."""
        device, sms = run_kernel(90, shared=Device().config.shared_mem_per_sm)
        from collections import Counter

        counts = Counter(sms.values())
        assert all(counts[sm] == 3 for sm in range(30))

    def test_blocks_spread_before_stacking(self):
        """With occupancy > 1, the first wave still spreads across SMs."""
        device, sms = run_kernel(30)  # no shared memory: high occupancy
        assert sorted(sms.values()) == list(range(30))


class TestSmPlacementUnit:
    def test_least_loaded_placement(self):
        p = SmPlacement("k", num_sms=3, per_sm=2)
        assert [p.place(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]
        assert p.resident_counts == [2, 2, 2]

    def test_release_frees_slot(self):
        p = SmPlacement("k", num_sms=2, per_sm=1)
        p.place(0)
        p.place(1)
        p.release(0)
        assert p.place(2) == 0  # reuses the freed SM

    def test_double_place_rejected(self):
        p = SmPlacement("k", num_sms=2, per_sm=1)
        p.place(0)
        with pytest.raises(SimulationError):
            p.place(0)

    def test_release_without_place_rejected(self):
        p = SmPlacement("k", num_sms=2, per_sm=1)
        with pytest.raises(SimulationError):
            p.release(5)

    def test_overflow_detected(self):
        p = SmPlacement("k", num_sms=1, per_sm=1)
        p.place(0)
        with pytest.raises(SimulationError):
            p.place(1)

    def test_per_sm_validation(self):
        with pytest.raises(SimulationError):
            SmPlacement("k", num_sms=2, per_sm=0)
