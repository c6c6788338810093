"""Tests for the BlockCtx device API (compute, memory ops, atomics, spins)."""

import numpy as np
import pytest

from repro.errors import ConfigError, MemoryError_
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.context import BlockCtx
from repro.gpu.device import Device


@pytest.fixture
def device():
    return Device()


def make_ctx(device, block_id=0, num_blocks=4, threads=64):
    return BlockCtx(device, "test-kernel", block_id, num_blocks, threads)


def run_block(device, gen):
    device.engine.spawn(gen)
    return device.run()


def test_compute_charges_cost_then_applies_work(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("x", 4)
    seen = []

    def observer():
        # At t=400 (before the 500ns compute ends) the work must not
        # have been applied yet.
        from repro.simcore import Delay

        yield Delay(400)
        seen.append(float(arr.data[0]))

    def block():
        yield from ctx.compute(500, lambda: arr.store(0, 1.0))

    device.engine.spawn(observer())
    total = run_block(device, block())
    assert total == 500
    assert seen == [0.0]
    assert arr.data[0] == 1.0


def test_compute_records_span(device):
    ctx = make_ctx(device, block_id=2)

    def block():
        yield from ctx.compute(300, round=7)

    run_block(device, block())
    spans = device.trace.spans("compute", owner="test-kernel/b2")
    assert len(spans) == 1
    assert spans[0].duration == 300
    assert spans[0].meta == {"round": 7}


def test_zero_cost_compute_is_legal(device):
    ctx = make_ctx(device)

    def block():
        yield from ctx.compute(0, lambda: None)

    assert run_block(device, block()) == 0


def test_gread_gwrite_costs(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("x", 4, dtype=np.int64)
    t = device.config.timings
    values = []

    def block():
        yield from ctx.gwrite(arr, 1, 9)
        v = yield from ctx.gread(arr, 1)
        values.append(int(v))

    total = run_block(device, block())
    assert total == t.global_write_ns + t.global_read_ns
    assert values == [9]


def test_atomic_add_returns_old_value(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("counter", 1, dtype=np.int64)
    olds = []

    def block():
        old = yield from ctx.atomic_add(arr, 0, 5)
        olds.append(int(old))
        old = yield from ctx.atomic_add(arr, 0, 3)
        olds.append(int(old))

    run_block(device, block())
    assert olds == [0, 5]
    assert arr.data[0] == 8
    assert device.atomics.ops == 2


def test_contending_atomics_serialize(device):
    """N simultaneous atomicAdds to one cell take N·t_a (Eq. 6's core)."""
    arr = device.memory.alloc("mutex", 1, dtype=np.int64)
    t = device.config.timings
    n = 8

    def block(i):
        ctx = make_ctx(device, block_id=i, num_blocks=n)
        yield from ctx.atomic_add(arr, 0, 1)

    for i in range(n):
        device.engine.spawn(block(i))
    total = device.run()
    assert total == n * t.atomic_ns
    assert arr.data[0] == n


def test_atomics_to_different_cells_run_in_parallel(device):
    """Distinct addresses don't contend — the tree barrier's premise."""
    arr = device.memory.alloc("mutexes", 8, dtype=np.int64)
    t = device.config.timings

    def block(i):
        ctx = make_ctx(device, block_id=i, num_blocks=8)
        yield from ctx.atomic_add(arr, i, 1)

    for i in range(8):
        device.engine.spawn(block(i))
    total = device.run()
    assert total == t.atomic_ns  # all in parallel
    assert list(arr.data) == [1] * 8


def test_device_wide_atomics_ablation_serializes_everything():
    device = Device(device_wide_atomics=True)
    arr = device.memory.alloc("mutexes", 8, dtype=np.int64)
    t = device.config.timings

    def block(i):
        ctx = BlockCtx(device, "k", i, 8, 64)
        yield from ctx.atomic_add(arr, i, 1)

    for i in range(8):
        device.engine.spawn(block(i))
    assert device.run() == 8 * t.atomic_ns


def test_spin_until_charges_one_observation(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("flag", 1, dtype=np.int64)
    t = device.config.timings
    times = []

    def writer():
        from repro.simcore import Delay

        yield Delay(1000)
        arr.store(0, 1)

    def block():
        yield from ctx.spin_until(arr, lambda: arr.data[0] == 1, "flag")
        times.append(device.engine.now)

    device.engine.spawn(writer())
    device.engine.spawn(block())
    device.run()
    assert times == [1000 + t.spin_read_ns]


def test_syncthreads_cost(device):
    ctx = make_ctx(device)

    def block():
        yield from ctx.syncthreads()

    assert run_block(device, block()) == device.config.timings.syncthreads_ns


def test_atomic_2d_index_flattening(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("grid", (3, 4), dtype=np.int64)

    def block():
        yield from ctx.atomic_add(arr, (1, 2), 1)

    run_block(device, block())
    assert arr.data[1, 2] == 1


def test_atomic_slice_index_rejected(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("a", 4, dtype=np.int64)
    with pytest.raises(MemoryError_):
        ctx._flat_index(arr, slice(None))


def test_atomic_bad_2d_index_rejected(device):
    ctx = make_ctx(device)
    arr = device.memory.alloc("b", (2, 2), dtype=np.int64)
    with pytest.raises(MemoryError_):
        ctx._flat_index(arr, (5, 9))


def test_equal_durations_share_one_delay(device):
    a, b = make_ctx(device, 0), make_ctx(device, 1)
    arr = device.memory.alloc("d", 4)
    first = next(a.compute(500))
    assert next(b.compute(500)) is first
    assert next(a.compute(700)) is not first
    read = next(a.gread(arr, 0))
    assert next(b.gread(arr, 1)) is read
    assert next(a.syncthreads()) is next(b.syncthreads())
    assert device.delays[500] is first
    # Another device has its own delays.
    assert next(make_ctx(Device()).compute(500)) is not first


def test_fault_scaled_compute_gets_its_own_delay():
    plan = FaultPlan([FaultSpec("straggler", block=0, factor=2.5)])
    device = Device(faults=plan)
    slow = next(make_ctx(device, 0).compute(400))
    plain = next(make_ctx(device, 1).compute(400))
    assert slow.ns == 1000 and plain.ns == 400
    assert slow is not plain
    assert next(make_ctx(device, 0).compute(400)) is slow


def test_rejected_cost_is_never_a_delay_key(device):
    with pytest.raises(ConfigError):
        next(make_ctx(device).compute(float("nan")))
    assert device.delays == {}
