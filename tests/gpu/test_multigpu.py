"""Tests for multiple devices sharing one simulated system.

The paper's §3 dismisses routing inter-*block* communication through the
inter-GPU path (Stuart & Owens) because "data needs to be moved to the
CPU host memory first and then transferred back".  With two devices on
one engine we can measure exactly that claim.
"""

import numpy as np

from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.model.barrier_costs import lockfree_cost
from repro.simcore import Engine


def add_one_kernel(ctx, data):
    lo = ctx.block_id * (len(data) // ctx.num_blocks)
    hi = lo + len(data) // ctx.num_blocks

    def work():
        data.data[lo:hi] += 1.0

    yield from ctx.compute(500, work)


def test_two_devices_share_virtual_time():
    engine = Engine()
    dev_a = Device(engine=engine)
    dev_b = Device(engine=engine)
    assert dev_a.engine is dev_b.engine
    host_a, host_b = Host(dev_a), Host(dev_b)
    xa = dev_a.memory.alloc("x", 64)
    xb = dev_b.memory.alloc("x", 64)  # same name, different device: fine

    def program():
        ha = yield from host_a.launch(
            KernelSpec("ka", add_one_kernel, 4, 32, params=dict(data=xa))
        )
        hb = yield from host_b.launch(
            KernelSpec("kb", add_one_kernel, 4, 32, params=dict(data=xb))
        )
        yield from host_a.synchronize()
        yield from host_b.synchronize()
        return ha, hb

    proc = engine.spawn(program(), "host")
    engine.run()
    assert np.all(xa.data == 1.0) and np.all(xb.data == 1.0)
    # The two devices' kernels overlapped (separate kernel engines).
    ha, hb = proc.result
    assert ha.start_ns < hb.end_ns and hb.start_ns < ha.end_ns


def test_devices_have_independent_kernel_engines():
    """Serialization is per device: two kernels on one device serialize,
    one each on two devices run concurrently."""
    engine = Engine()
    dev_a, dev_b = Device(engine=engine), Device(engine=engine)
    host_a, host_b = Host(dev_a), Host(dev_b)

    def noop(ctx):
        yield from ctx.compute(10_000)

    def program():
        yield from host_a.launch(KernelSpec("a1", noop, 1, 32))
        yield from host_b.launch(KernelSpec("b1", noop, 1, 32))
        yield from host_a.synchronize()
        yield from host_b.synchronize()

    engine.spawn(program(), "host")
    total_two_devices = engine.run()

    engine2 = Engine()
    dev = Device(engine=engine2)
    host = Host(dev)

    def program2():
        yield from host.launch(KernelSpec("a1", noop, 1, 32))
        yield from host.launch(KernelSpec("b1", noop, 1, 32))
        yield from host.synchronize()

    engine2.spawn(program2(), "host")
    total_one_device = engine2.run()
    assert total_two_devices < total_one_device


def test_inter_gpu_barrier_is_much_costlier_than_intra():
    """The §3 claim, quantified: a grid barrier through host memory
    (sync + d2h + h2d + relaunch on both devices) costs orders of
    magnitude more than the on-device lock-free barrier."""
    engine = Engine()
    dev_a, dev_b = Device(engine=engine), Device(engine=engine)
    host_a, host_b = Host(dev_a), Host(dev_b)
    xa = dev_a.memory.alloc("halo", 1024)
    xb = dev_b.memory.alloc("halo", 1024)

    def program():
        t0 = engine.now
        # One "inter-GPU barrier": drain both devices, exchange halos
        # through the host, relaunch on both.
        yield from host_a.synchronize()
        yield from host_b.synchronize()
        halo_a = yield from host_a.memcpy_d2h(xa)
        halo_b = yield from host_b.memcpy_d2h(xb)
        yield from host_a.memcpy_h2d(xa, halo_b)
        yield from host_b.memcpy_h2d(xb, halo_a)
        yield from host_a.launch(
            KernelSpec("ka", add_one_kernel, 4, 32, params=dict(data=xa))
        )
        yield from host_b.launch(
            KernelSpec("kb", add_one_kernel, 4, 32, params=dict(data=xb))
        )
        yield from host_a.synchronize()
        yield from host_b.synchronize()
        return engine.now - t0

    p = engine.spawn(program(), "host")
    engine.run()
    inter_gpu_ns = p.result
    assert inter_gpu_ns > 20 * lockfree_cost(30)
