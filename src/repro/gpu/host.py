"""The host CPU: asynchronous kernel launches and stream semantics.

This module is where the difference between the paper's **CPU explicit**
and **CPU implicit** synchronization lives (paper §4.1–4.2, Figs. 2–3):

* :meth:`Host.launch` models ``kernel<<<...>>>()``: the call occupies the
  host for ``host_async_call_ns`` and returns; the launch command keeps
  travelling for the rest of ``host_launch_ns`` *concurrently with
  whatever the device is doing*.  Back-to-back launches therefore
  pipeline — the implicit-sync geometry of Fig. 3.
* :meth:`Host.synchronize` models ``cudaThreadSynchronize()``: the host
  blocks until the stream drains.  A launch issued afterwards exposes its
  full ``host_launch_ns`` on the critical path — the explicit-sync
  geometry of Fig. 2(a).

Host *programs* are generators (like device programs) spawned onto the
same engine, so host/device overlap falls out of the event ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import LaunchError
from repro.gpu.kernel import KernelSpec
from repro.gpu.stream import Event, Stream
from repro.simcore.effects import Delay, Join, Spawn, WaitUntil
from repro.simcore.process import Process
from repro.simcore.signal import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device
    from repro.simcore.engine import Engine

__all__ = ["Event", "Host", "KernelHandle", "Stream"]


@dataclass
class KernelHandle:
    """Runtime record of one kernel launch."""

    spec: KernelSpec
    arrival_signal: Signal = field(default_factory=lambda: Signal("launch"))
    arrived: bool = False
    process: Optional[Process] = None
    issued_ns: Optional[int] = None  #: when the host call started
    start_ns: Optional[int] = None  #: when the device began setup
    end_ns: Optional[int] = None  #: when teardown finished
    #: block processes, populated at dispatch and cleared once the
    #: kernel drains (what :meth:`kill` cancels).
    block_processes: list = field(default_factory=list)
    #: True when an injected ``driver-kill`` fault aborted this kernel.
    killed: bool = False

    def kill(self, engine: "Engine", reason: str) -> bool:
        """Abort the kernel like the driver would; False if it already ended.

        The one way a kernel dies early: an injected ``driver-kill``
        fault (:mod:`repro.faults`) calls this.  Marks the handle
        killed, stamps ``end_ns`` and cancels the kernel manager and
        every block (freeing their SM slots); a cancelled block cancels
        the warp agents it spawned (:func:`repro.gpu.warps.run_warps`).
        Host code observes the failure via
        ``Host.get_last_error()``.
        """
        if self.end_ns is not None or self.killed:
            return False
        self.killed = True
        self.end_ns = engine.now
        if self.process is not None:
            engine.cancel(self.process, reason)
        for block in self.block_processes:
            engine.cancel(block, reason)
        return True

    @property
    def done(self) -> bool:
        """True once the kernel drained normally (killed kernels never are)."""
        return self.end_ns is not None and not self.killed

    @property
    def duration_ns(self) -> Optional[int]:
        """Device-side duration (setup through teardown), if finished."""
        if self.start_ns is None or self.end_ns is None:
            return None
        return self.end_ns - self.start_ns


class Host:
    """The host CPU attached to one device, issuing launches in-order.

    Supports multiple :class:`~repro.gpu.stream.Stream` handles and
    ``cudaEvent``-style :class:`~repro.gpu.stream.Event` objects, with
    the device's pre-Fermi single kernel engine serializing all kernels
    in issue order regardless of stream (see :mod:`repro.gpu.stream`).
    """

    def __init__(self, device: "Device"):
        self.device = device
        self.default_stream = Stream("default")
        #: tail of the device's issue-order FIFO (kernels + event markers).
        self._engine_tail: Optional[Process] = None
        #: sticky error from a killed kernel (cudaGetLastError).
        self.last_error: Optional[str] = None

    # -- host program helpers (use with ``yield from``) ----------------------

    def launch(
        self,
        spec: KernelSpec,
        stream: Optional[Stream] = None,
        wait_event: Optional[Event] = None,
    ) -> Generator:
        """Asynchronously launch a kernel; returns its :class:`KernelHandle`.

        ``stream`` selects the launch queue (default stream if omitted);
        ``wait_event`` gates the kernel on an event, head-of-line (the
        pre-Fermi engine blocks everything behind it).  Validates
        occupancy eagerly so impossible launches fail fast with
        :class:`repro.errors.OccupancyError` instead of deadlocking.
        """
        self.device.scheduler.validate(spec)
        stream = stream or self.default_stream
        timings = self.device.config.timings
        handle = KernelHandle(spec, Signal(f"launch:{spec.name}"))
        handle.issued_ns = self.device.engine.now

        # The synchronous slice of the launch call (driver work).
        yield Delay(timings.host_async_call_ns)

        # The rest of the command transfer overlaps device execution.
        remaining = max(0, timings.host_launch_ns - timings.host_async_call_ns)
        yield Spawn(self._transfer(handle, remaining), f"xfer:{spec.name}")

        process = yield Spawn(
            self.device.kernel_process(handle, self._engine_tail, wait_event),
            f"kernel:{spec.name}",
        )
        handle.process = process
        self._engine_tail = process
        stream.last_process = process
        return handle

    def synchronize(self) -> Generator:
        """``cudaThreadSynchronize()``: block until the device drains.

        If a kernel was killed since the last check, the failure
        is latched into :attr:`last_error` (read it with
        :meth:`get_last_error`), like the real API's sticky error state.
        """
        if self._engine_tail is not None:
            result = yield Join(self._engine_tail, reason="cudaThreadSynchronize")
            self._note_cancellation(result)
        return None

    def stream_synchronize(self, stream: Stream) -> Generator:
        """``cudaStreamSynchronize()``: block until one stream drains."""
        if stream.last_process is not None:
            result = yield Join(
                stream.last_process, reason=f"cudaStreamSynchronize {stream.name}"
            )
            self._note_cancellation(result)
        return None

    def get_last_error(self) -> Optional[str]:
        """``cudaGetLastError()``: return and clear the sticky error."""
        error, self.last_error = self.last_error, None
        return error

    def _note_cancellation(self, join_result) -> None:
        from repro.simcore.process import Cancelled

        if isinstance(join_result, Cancelled):
            self.last_error = join_result.reason

    def record_event(
        self, event: Event, stream: Optional[Stream] = None
    ) -> Generator:
        """``cudaEventRecord``: mark ``event`` when the stream reaches it."""
        if event.recorded:
            raise LaunchError(f"event {event.name!r} was already recorded")
        stream = stream or self.default_stream
        predecessor = self._engine_tail

        def marker() -> Generator:
            if predecessor is not None:
                yield Join(predecessor, reason=f"event marker {event.name}")
            event.recorded = True
            event.timestamp_ns = self.device.engine.now
            self.device.engine.fire(event.signal)

        process = yield Spawn(marker(), f"event:{event.name}")
        self._engine_tail = process
        stream.last_process = process
        return event

    def event_synchronize(self, event: Event) -> Generator:
        """``cudaEventSynchronize``: block the host until the event fires."""
        yield WaitUntil(
            event.signal, lambda: event.recorded, f"event {event.name}"
        )
        return None

    def memcpy_h2d(self, array, data) -> Generator:
        """``cudaMemcpy`` host→device: synchronous, stream-ordered.

        Drains the stream (cudaMemcpy's implicit synchronization), then
        charges the driver overhead plus ``nbytes / pcie_gbps`` before
        the data lands in the device array.  The paper's figures exclude
        transfer time; this exists for end-to-end application modeling.
        """
        yield from self.synchronize()
        timings = self.device.config.timings
        nbytes = getattr(data, "nbytes", len(data))
        yield Delay(
            timings.memcpy_overhead_ns + nbytes / self.device.config.pcie_gbps
        )
        array.store(slice(None), data)

    def memcpy_d2h(self, array) -> Generator:
        """``cudaMemcpy`` device→host: synchronous; returns a host copy."""
        yield from self.synchronize()
        timings = self.device.config.timings
        yield Delay(
            timings.memcpy_overhead_ns
            + array.nbytes / self.device.config.pcie_gbps
        )
        return array.data.copy()

    # -- internals -------------------------------------------------------------

    def _transfer(self, handle: KernelHandle, remaining_ns: int) -> Generator:
        """The launch command's journey to the device after the call returns."""
        if remaining_ns > 0:
            yield Delay(remaining_ns)
        handle.arrived = True
        self.device.engine.fire(handle.arrival_signal)
