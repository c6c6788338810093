"""Tests for a driver kill mid-launch (the ``driver-kill`` fault): the
device survives, the host observes the error — the developer experience
of a display watchdog firing on a real GPU."""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.gpu.presets import get_preset
from repro.harness.runner import run
from repro.sanitize import SkewedMicrobench


def killing_device(at_ns=1_000_000):
    """A device whose first launch the driver kills ``at_ns`` after start."""
    plan = FaultPlan([FaultSpec("driver-kill", at_ns=at_ns)])
    return Device(get_preset("gtx280"), faults=plan)


def naive_oversubscribed_spec(device, n):
    arrivals = device.memory.alloc("arrivals", 1, dtype=np.int64)

    def naive_barrier(ctx):
        yield from ctx.atomic_add(arrivals, 0, 1)
        yield from ctx.spin_until(
            arrivals, lambda: arrivals.data[0] >= n, "naive barrier"
        )

    return KernelSpec(
        "unsafe", naive_barrier, grid_blocks=n, block_threads=64,
        shared_mem_per_block=device.config.shared_mem_per_sm,
    )


def test_killed_kernel_surfaces_as_host_error_not_exception():
    device = killing_device()
    host = Host(device)
    n = device.config.num_sms + 1
    spec = naive_oversubscribed_spec(device, n)

    def host_program():
        handle = yield from host.launch(spec)
        yield from host.synchronize()
        return handle

    proc = device.engine.spawn(host_program(), "host")
    device.run()  # completes: the device recovered
    assert host.get_last_error() == "injected driver-kill of unsafe (fault plan)"
    assert host.get_last_error() is None  # sticky error cleared
    h = proc.result
    assert device.killed == [h]
    assert h.killed
    assert not h.done
    assert device.engine.live_processes == []


def test_device_usable_after_kill():
    """After the driver kills a launch, later launches run normally."""
    device = killing_device()
    host = Host(device)
    n = device.config.num_sms + 1
    bad = naive_oversubscribed_spec(device, n)
    ok_flag = device.memory.alloc("ok", 1, dtype=np.int64)

    def good_program(ctx):
        yield from ctx.compute(500, lambda: ok_flag.store(0, 1))

    good = KernelSpec("good", good_program, grid_blocks=4, block_threads=64)

    def host_program():
        yield from host.launch(bad)
        yield from host.synchronize()
        assert host.get_last_error() is not None
        yield from host.launch(good)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()
    assert ok_flag.data[0] == 1
    assert host.last_error is None  # the good kernel set no error


def test_kill_frees_sm_slots():
    """The killed kernel's blocks held every SM; the next kernel must
    get them all back."""
    device = killing_device(at_ns=100_000)
    host = Host(device)
    n = device.config.num_sms + 1
    bad = naive_oversubscribed_spec(device, n)
    hits = device.memory.alloc("hits", 30, dtype=np.int64)

    def full_grid(ctx):
        yield from ctx.compute(100, lambda: hits.store(ctx.block_id, 1))

    good = KernelSpec(
        "fullgrid", full_grid, grid_blocks=30, block_threads=64,
        shared_mem_per_block=device.config.shared_mem_per_sm,
    )

    def host_program():
        yield from host.launch(bad)
        yield from host.launch(good)  # queued behind the doomed kernel
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()
    assert int(hits.data.sum()) == 30


def test_kill_cancels_warp_agents_too():
    """The detailed lock-free barrier's checking block runs as warp
    agents; a killed kernel must take them down with their block, so
    both granularities end the same typed way (not in a DeadlockError
    naming ``.../b1/w0``)."""
    for strategy in ("gpu-lockfree", "gpu-lockfree-detailed"):
        algo = SkewedMicrobench(rounds=50, num_blocks_hint=8, threads_per_block=64)
        plan = FaultPlan([FaultSpec("driver-kill", at_ns=5_000)])
        with pytest.raises(FaultError) as err:
            run(algo, strategy, 8, faults=plan)
        assert str(err.value) == (
            "kernel killed mid-run: injected driver-kill of "
            f"micro-skewed:{strategy} (fault plan)"
        )
        # A warp agent left parked would show up as a drain-check stall
        # chained under the kill.
        assert err.value.__cause__ is None
