"""Tests for the watchdog 'kill' mode: the device survives, the host
observes the error — exactly the developer experience on a real
display-attached GPU."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.base import VerificationError
from repro.errors import ConfigError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.harness.runner import run
from repro.sanitize import SkewedMicrobench


def kill_config(watchdog_ns=1_000_000):
    return dataclasses.replace(
        get_preset("gtx280"), watchdog_ns=watchdog_ns, watchdog_action="kill"
    )


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
    device = Device(kill_config())
    host = Host(device)
    n = device.config.num_sms + 1
    spec = naive_oversubscribed_spec(device, n)

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()  # completes: the device recovered
    error = host.get_last_error()
    assert error is not None and "watchdog" in error
    assert host.get_last_error() is None  # sticky error cleared
    (h,) = host.launches
    assert h.killed
    assert not h.done


def test_device_usable_after_kill():
    """After the driver kills a launch, later launches run normally."""
    device = Device(kill_config())
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
    device = Device(kill_config(watchdog_ns=100_000))
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


def test_fast_kernels_never_killed():
    device = Device(kill_config(watchdog_ns=50_000))
    host = Host(device)

    def program(ctx):
        yield from ctx.compute(500)

    def host_program():
        for i in range(3):
            yield from host.launch(
                KernelSpec(f"k{i}", program, grid_blocks=2, block_threads=32)
            )
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    device.run()
    assert device.kernels_completed == 3
    assert host.last_error is None


def test_kill_cancels_warp_agents_too():
    """The detailed lock-free barrier's checking block runs as warp
    agents; a killed kernel must take them down with their block, so
    both granularities end the same way (not in a DeadlockError naming
    ``.../b1/w0``)."""
    outcomes = []
    for strategy in ("gpu-lockfree", "gpu-lockfree-detailed"):
        algo = SkewedMicrobench(rounds=50, num_blocks_hint=8, threads_per_block=64)
        with pytest.raises(VerificationError) as err:
            run(algo, strategy, 8, config=kill_config(watchdog_ns=5_000))
        outcomes.append(str(err.value))
    assert outcomes[0] == outcomes[1]
    assert "uneven round stamps" in outcomes[0]


def test_watchdog_action_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(watchdog_action="explode")
