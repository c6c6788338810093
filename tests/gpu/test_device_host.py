"""Tests for kernel launch, streams, pipelining, occupancy and deadlock."""

import numpy as np
import pytest

from repro.errors import DeadlockError, OccupancyError
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.model.kernel_time import cpu_explicit_time, cpu_implicit_time


def noop_program(ctx):
    yield from ctx.compute(500)


def make_spec(name="k", blocks=4, threads=64, shared=0, program=noop_program, **params):
    return KernelSpec(
        name=name,
        program=program,
        grid_blocks=blocks,
        block_threads=threads,
        shared_mem_per_block=shared,
        params=params,
    )


def launch_and_run(device, host, specs, explicit=False, handles=None):
    """Launch ``specs`` in order and run; ``handles`` collects each launch's."""

    def host_program():
        for spec in specs:
            handle = yield from host.launch(spec)
            if handles is not None:
                handles.append(handle)
            if explicit:
                yield from host.synchronize()
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    return device.run()


class TestLaunchGeometry:
    def test_single_launch_time(self):
        device = Device()
        host = Host(device)
        t = device.config.timings
        total = launch_and_run(device, host, [make_spec()])
        assert total == (
            t.host_launch_ns + t.kernel_setup_ns + 500 + t.kernel_teardown_ns
        )

    def test_implicit_pipelining_matches_eq4(self):
        device = Device()
        host = Host(device)
        rounds = 5
        total = launch_and_run(
            device, host, [make_spec(name=f"k{i}") for i in range(rounds)]
        )
        assert total == cpu_implicit_time(rounds, 500, device.config.timings)

    def test_explicit_serialization_matches_eq3(self):
        device = Device()
        host = Host(device)
        rounds = 5
        total = launch_and_run(
            device,
            host,
            [make_spec(name=f"k{i}") for i in range(rounds)],
            explicit=True,
        )
        assert total == cpu_explicit_time(rounds, 500, device.config.timings)

    def test_stream_order_preserved(self):
        device = Device()
        host = Host(device)
        order = []

        def program(ctx, tag):
            yield from ctx.compute(100, lambda: order.append(tag))

        specs = [
            make_spec(name=f"k{i}", program=program, tag=i) for i in range(4)
        ]
        launch_and_run(device, host, specs)
        # Four blocks per kernel, kernels strictly in stream order.
        assert order == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_kernel_handles_record_times(self):
        device = Device()
        host = Host(device)
        handles = []
        launch_and_run(device, host, [make_spec()], handles=handles)
        (h,) = handles
        t = device.config.timings
        assert h.issued_ns == 0
        assert h.start_ns == t.host_launch_ns
        assert h.done
        assert h.duration_ns == t.kernel_setup_ns + 500 + t.kernel_teardown_ns


class TestBlockScheduling:
    def test_all_blocks_execute(self):
        device = Device()
        host = Host(device)
        arr = device.memory.alloc("hits", 64, dtype=np.int64)

        def program(ctx):
            yield from ctx.compute(100, lambda: arr.store(ctx.block_id, 1))

        launch_and_run(device, host, [make_spec(blocks=64, program=program)])
        assert int(arr.data.sum()) == 64

    def test_excess_blocks_queue_on_slots(self):
        """More blocks than co-resident capacity: waves, not failure —
        as long as no device barrier needs them all resident."""
        device = Device()
        host = Host(device)
        cfg = device.config
        # Full shared memory → 1 block/SM → 30 co-resident.
        spec = make_spec(blocks=90, shared=cfg.shared_mem_per_sm)
        t = cfg.timings
        total = launch_and_run(device, host, [spec])
        # Three waves of 30 blocks, 500 ns each.
        assert total == t.host_launch_ns + t.kernel_setup_ns + 3 * 500 + t.kernel_teardown_ns

    def test_impossible_kernel_raises_occupancy_error(self):
        device = Device()
        host = Host(device)
        spec = make_spec(threads=64, shared=device.config.shared_mem_per_sm + 1)

        def host_program():
            yield from host.launch(spec)

        device.engine.spawn(host_program(), "host")
        with pytest.raises(Exception) as exc:
            device.run()
        assert isinstance(exc.value.__cause__ or exc.value, OccupancyError) or (
            "exceeds" in str(exc.value)
        )

    def test_too_many_threads_rejected(self):
        device = Device()
        spec = make_spec(threads=513)
        with pytest.raises(OccupancyError):
            device.scheduler.validate(spec)


class TestDeadlock:
    def test_oversubscribed_spin_barrier_deadlocks(self):
        """The paper's §5 hazard, reproduced mechanistically.

        31 blocks on 30 SMs with a naive device-side spin barrier: the 30
        resident blocks spin for the 31st, which can never get a slot
        because blocks are non-preemptive.
        """
        device = Device()
        host = Host(device)
        cfg = device.config
        arrivals = device.memory.alloc("arrivals", 1, dtype=np.int64)
        n = cfg.num_sms + 1

        def naive_barrier_program(ctx):
            yield from ctx.atomic_add(arrivals, 0, 1)
            yield from ctx.spin_until(
                arrivals, lambda: arrivals.data[0] >= n, "naive barrier"
            )

        spec = make_spec(
            blocks=n,
            shared=cfg.shared_mem_per_sm,  # one block per SM
            program=naive_barrier_program,
        )
        device.engine.spawn(
            (e for gen in [host.launch(spec), host.synchronize()] for e in gen),
            "host",
        )
        with pytest.raises(DeadlockError) as exc:
            device.run()
        blocked = dict(exc.value.blocked)
        # The 30 resident blocks are spinning; the extra one waits for a slot.
        assert any("naive barrier" in reason for reason in blocked.values())
        assert any("SM slot" in reason for reason in blocked.values())

    def test_same_grid_fits_when_it_matches_sm_count(self):
        device = Device()
        host = Host(device)
        cfg = device.config
        arrivals = device.memory.alloc("arrivals", 1, dtype=np.int64)
        n = cfg.num_sms

        def barrier_program(ctx):
            yield from ctx.atomic_add(arrivals, 0, 1)
            yield from ctx.spin_until(
                arrivals, lambda: arrivals.data[0] >= n, "barrier"
            )

        spec = make_spec(
            blocks=n, shared=cfg.shared_mem_per_sm, program=barrier_program
        )
        launch_and_run(device, host, [spec])
        assert arrivals.data[0] == n


class TestHandleHoldsOnlyWhatItNeeds:
    def test_block_processes_cleared_once_the_kernel_drains(self):
        device = Device()
        host = Host(device)
        handles = []
        launch_and_run(
            device, host, [make_spec(name=f"k{i}") for i in range(3)],
            handles=handles,
        )
        assert [h.done for h in handles] == [True] * 3
        assert all(h.block_processes == [] for h in handles)
        assert device.engine.live_processes == []
