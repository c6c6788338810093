"""Edge-case tests for the BlockCtx device API."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu.context import BlockCtx
from repro.gpu.device import Device


@pytest.fixture
def device():
    return Device()


def test_negative_compute_cost_rejected(device):
    ctx = BlockCtx(device, "k", 0, 1, 32)
    with pytest.raises(ConfigError, match="non-negative"):
        next(ctx.compute(-5))


def test_record_attaches_meta(device):
    ctx = BlockCtx(device, "k", 3, 4, 32)
    ctx.record("custom-phase", 0, foo="bar")
    (span,) = device.trace.spans("custom-phase")
    assert span.owner == "k/b3"
    assert span.meta == {"foo": "bar"}


def test_atomic_spans_record_queue_time(device):
    """The 'atomic' span carries the queue wait, feeding tracestats."""
    arr = device.memory.alloc("m", 1, dtype=np.int64)

    def block(i):
        ctx = BlockCtx(device, "k", i, 2, 32)
        yield from ctx.atomic_add(arr, 0, 1)

    device.engine.spawn(block(0))
    device.engine.spawn(block(1))
    device.run()
    spans = device.trace.spans("atomic")
    assert len(spans) == 2
    queue_waits = sorted(s.meta["queued"] for s in spans)
    assert queue_waits == [0, device.config.timings.atomic_ns]


def test_spin_span_counts_polls(device):
    arr = device.memory.alloc("flag", 1, dtype=np.int64)

    def writer():
        from repro.simcore import Delay

        yield Delay(50)
        arr.store(0, 0)  # fires, predicate still false: one wasted poll
        yield Delay(50)
        arr.store(0, 1)

    def block():
        ctx = BlockCtx(device, "k", 0, 1, 32)
        yield from ctx.spin_until(arr, lambda: arr.data[0] == 1, "flag")

    device.engine.spawn(writer())
    device.engine.spawn(block())
    device.run()
    (span,) = device.trace.spans("spin")
    assert span.meta["polls"] == 2
    assert span.duration == 100 + device.config.timings.spin_read_ns


def test_fire_with_no_waiters_is_harmless(device):
    arr = device.memory.alloc("x", 1)
    arr.store(0, 1.0)  # fires the signal; nobody is listening
    assert arr.signal.fire_count == 1


def test_direct_ctx_gets_full_shared_budget(device):
    """A BlockCtx built outside the scheduler can use the whole SM."""
    ctx = BlockCtx(device, "k", 0, 1, 32)
    tile = ctx.shared_alloc("big", device.config.shared_mem_per_sm // 8)
    assert tile.nbytes == device.config.shared_mem_per_sm


@pytest.mark.parametrize("cost", [float("nan"), float("inf")])
def test_non_finite_compute_cost_rejected(device, cost):
    ctx = BlockCtx(device, "k", 0, 1, 32)
    with pytest.raises(ConfigError, match="finite"):
        next(ctx.compute(cost))
    assert len(device.trace) == 0
