"""Tests for streams and events (pre-Fermi kernel-engine semantics)."""

import pytest

from repro.errors import DeadlockError, LaunchError
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.gpu.stream import Event, Stream


def make_spec(name, cost=500, tag=None, sink=None):
    def program(ctx):
        yield from ctx.compute(
            cost, (lambda: sink.append(tag)) if sink is not None else None
        )

    return KernelSpec(name, program, grid_blocks=1, block_threads=32)


@pytest.fixture
def setup():
    device = Device()
    return device, Host(device)


def run_host(device, gen):
    device.engine.spawn(gen, "host")
    return device.run()


class TestStreams:
    def test_kernels_across_streams_serialize_pre_fermi(self, setup):
        """Compute 1.x has one kernel engine: no concurrent kernels."""
        device, host = setup
        a, b = Stream("a"), Stream("b")

        def program():
            yield from host.launch(make_spec("ka", cost=1000), stream=a)
            yield from host.launch(make_spec("kb", cost=1000), stream=b)
            yield from host.synchronize()

        total = run_host(device, program())
        t = device.config.timings
        # Serial: launch + 2 × (setup + compute + teardown); second launch
        # pipelines behind the first kernel.
        assert total == t.host_launch_ns + 2 * (
            t.kernel_setup_ns + 1000 + t.kernel_teardown_ns
        )

    def test_stream_synchronize_waits_only_that_stream(self, setup):
        device, host = setup
        a, b = Stream("a"), Stream("b")
        order = []

        def program():
            yield from host.launch(make_spec("ka", tag="a", sink=order), stream=a)
            yield from host.launch(make_spec("kb", tag="b", sink=order), stream=b)
            yield from host.stream_synchronize(a)
            order.append(("host-after-a", device.engine.now))
            yield from host.synchronize()

        run_host(device, program())
        # Stream a's kernel finished before the host proceeded.
        host_mark = next(x for x in order if isinstance(x, tuple))
        assert order.index("a") < order.index(host_mark)

    def test_default_stream_used_when_none_given(self, setup):
        device, host = setup

        handles = []

        def program():
            handles.append((yield from host.launch(make_spec("k"))))
            yield from host.stream_synchronize(host.default_stream)

        run_host(device, program())
        assert handles[0].done


class TestEvents:
    def test_event_records_timestamp_after_preceding_work(self, setup):
        device, host = setup
        ev = Event("done")

        def program():
            yield from host.launch(make_spec("k", cost=700))
            yield from host.record_event(ev)
            yield from host.event_synchronize(ev)

        run_host(device, program())
        t = device.config.timings
        assert ev.recorded
        assert ev.timestamp_ns == (
            t.host_launch_ns + t.kernel_setup_ns + 700 + t.kernel_teardown_ns
        )

    def test_elapsed_between_events(self, setup):
        device, host = setup
        start, stop = Event("start"), Event("stop")

        def program():
            yield from host.record_event(start)
            yield from host.launch(make_spec("k", cost=900))
            yield from host.record_event(stop)
            yield from host.synchronize()

        run_host(device, program())
        t = device.config.timings
        # start fires immediately (empty engine); the interval then spans
        # the kernel's *exposed* launch latency plus its execution — the
        # same quantity cudaEventElapsedTime would report here.
        assert stop.elapsed_since(start) == (
            t.host_launch_ns + t.kernel_setup_ns + 900 + t.kernel_teardown_ns
        )

    def test_elapsed_requires_both_recorded(self):
        a, b = Event(), Event()
        a.recorded, a.timestamp_ns = True, 10
        with pytest.raises(ValueError):
            b.elapsed_since(a)

    def test_double_record_rejected(self, setup):
        device, host = setup
        ev = Event()

        def program():
            yield from host.record_event(ev)
            yield from host.event_synchronize(ev)
            yield from host.record_event(ev)

        with pytest.raises(Exception) as exc:
            run_host(device, program())
        assert isinstance(exc.value.__cause__ or exc.value, LaunchError) or (
            "already recorded" in str(exc.value)
        )

    def test_kernel_gated_on_event(self, setup):
        """wait_event delays the kernel until the event is recorded."""
        device, host = setup
        ev = Event("gate")
        order = []

        def program():
            # Record the event after a long kernel in stream a...
            a = Stream("a")
            yield from host.launch(
                make_spec("slow", cost=5000, tag="slow", sink=order), stream=a
            )
            yield from host.record_event(ev, stream=a)
            # ...and gate a kernel in stream b on it.
            yield from host.launch(
                make_spec("gated", cost=100, tag="gated", sink=order),
                stream=Stream("b"),
                wait_event=ev,
            )
            yield from host.synchronize()

        run_host(device, program())
        assert order == ["slow", "gated"]

    def test_event_deadlock_detected(self, setup):
        """Gating a kernel on an event recorded only *later* wedges the
        pre-Fermi engine head-of-line — and the simulator says so."""
        device, host = setup
        ev = Event("never-yet")

        def program():
            yield from host.launch(make_spec("gated"), wait_event=ev)
            # The marker that would record ev sits *behind* the gated
            # kernel in the engine FIFO: classic self-deadlock.
            yield from host.record_event(ev)
            yield from host.synchronize()

        with pytest.raises(DeadlockError):
            run_host(device, program())
