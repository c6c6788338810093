"""A CUDA-flavored front-end, so the paper's pseudocode maps 1:1.

The paper presents its host code as CUDA C (Figs. 2 and 4).  This module
wraps the device model in API names a CUDA programmer already knows, so
the figures can be transliterated line by line (see
``examples/paper_figures.py``)::

    cuda = CudaSession()
    d_data = cuda.cuda_malloc("data", 1024)
    cuda.cuda_memcpy_h2d(d_data, host_data)

    for i in range(num_iterations):            # Fig. 2(b)
        cuda.launch_kernel(kernel_func, grid, block, args=dict(data=d_data))
    cuda.cuda_thread_synchronize()

A :class:`CudaSession` owns a device, a host and a *session process*;
each call drives the simulation forward just far enough to keep the
host's program order, so the API is imperative (no generators in user
code) while the simulation stays event-driven underneath.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.errors import LaunchError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.gpu.device import Device
from repro.gpu.host import Host, KernelHandle
from repro.gpu.kernel import DeviceProgram, KernelSpec
from repro.gpu.memory import GlobalArray
from repro.gpu.stream import Event, Stream

__all__ = ["CudaSession"]


class CudaSession:
    """An imperative, CUDA-named façade over one simulated device.

    Every method runs the underlying host-program step to completion in
    virtual time before returning, so consecutive calls behave like
    consecutive statements in a CUDA host program.  Asynchrony still
    works: ``launch_kernel`` returns as soon as the *call* would (the
    kernel keeps running), and ``cuda_thread_synchronize`` drains the
    device — the Fig. 2(a)/(b) distinction is therefore expressible
    exactly as in the paper.
    """

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.device = Device(config or get_preset("gtx280"))
        self.host = Host(self.device)
        self._kernel_counter = 0

    # -- memory management ---------------------------------------------------

    def cuda_malloc(
        self, name: str, shape, dtype=np.float64
    ) -> GlobalArray:
        """``cudaMalloc``: allocate device global memory."""
        return self.device.memory.alloc(name, shape, dtype)

    def cuda_free(self, array: GlobalArray) -> None:
        """``cudaFree``."""
        self.device.memory.free(array.name)

    def cuda_memcpy_h2d(self, array: GlobalArray, data) -> None:
        """``cudaMemcpy(..., cudaMemcpyHostToDevice)`` — synchronous."""
        self._drive(self.host.memcpy_h2d(array, data))

    def cuda_memcpy_d2h(self, array: GlobalArray) -> np.ndarray:
        """``cudaMemcpy(..., cudaMemcpyDeviceToHost)`` — synchronous."""
        return self._drive(self.host.memcpy_d2h(array))

    # -- kernels ----------------------------------------------------------------

    def launch_kernel(
        self,
        program: DeviceProgram,
        grid_blocks: int,
        block_threads: int,
        shared_mem: int = 0,
        args: Optional[Dict[str, Any]] = None,
        stream: Optional[Stream] = None,
        name: Optional[str] = None,
    ) -> KernelHandle:
        """``kernel<<<grid, block, sharedMem, stream>>>(args...)``.

        Asynchronous, exactly like CUDA: returns once the launch call
        would, with the kernel still executing.
        """
        self._kernel_counter += 1
        spec = KernelSpec(
            name=name or f"{getattr(program, '__name__', 'kernel')}"
            f"#{self._kernel_counter}",
            program=program,
            grid_blocks=grid_blocks,
            block_threads=block_threads,
            shared_mem_per_block=shared_mem,
            params=dict(args or {}),
        )
        return self._drive(self.host.launch(spec, stream=stream))

    def cuda_thread_synchronize(self) -> None:
        """``cudaThreadSynchronize()``: block until the device drains."""
        self._drive(self.host.synchronize())

    def cuda_stream_create(self, name: Optional[str] = None) -> Stream:
        """``cudaStreamCreate``."""
        return Stream(name)

    def cuda_stream_synchronize(self, stream: Stream) -> None:
        """``cudaStreamSynchronize``."""
        self._drive(self.host.stream_synchronize(stream))

    # -- events ---------------------------------------------------------------

    def cuda_event_create(self, name: Optional[str] = None) -> Event:
        """``cudaEventCreate``."""
        return Event(name)

    def cuda_event_record(
        self, event: Event, stream: Optional[Stream] = None
    ) -> None:
        """``cudaEventRecord`` (asynchronous, like CUDA)."""
        self._drive(self.host.record_event(event, stream))

    def cuda_event_synchronize(self, event: Event) -> None:
        """``cudaEventSynchronize``."""
        self._drive(self.host.event_synchronize(event))

    def cuda_event_elapsed_time(self, start: Event, stop: Event) -> float:
        """``cudaEventElapsedTime`` — milliseconds, like CUDA."""
        return stop.elapsed_since(start) / 1e6

    # -- introspection -----------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current virtual time."""
        return self.device.engine.now

    # -- internals -------------------------------------------------------------

    def _drive(self, host_step) -> Any:
        """Run one host-program step to completion in virtual time.

        The step is spawned as a process; the engine runs until the step
        itself finishes (device work it merely *started* keeps running
        in the background, preserving launch asynchrony).
        """
        box: Dict[str, Any] = {}

        def wrapper():
            box["result"] = yield from host_step

        process = self.device.engine.spawn(wrapper(), "cuda-api-step")
        # Run until this step's process completes; background device
        # work stays queued in the engine.
        while process.alive:
            when = self.device.engine.next_event_time()
            if when is None:  # pragma: no cover - guard
                raise LaunchError("host step cannot complete (device idle)")
            self.device.engine.run(until=when)
        return box.get("result")
