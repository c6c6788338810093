"""Discrete-event model of a CUDA-2.x-class GPU (GTX 280 by default).

The model reproduces the execution semantics the paper's argument rests
on (see DESIGN.md §2):

* blocks are **non-preemptive** and scheduled onto SMs subject to
  occupancy limits (shared memory, registers, threads, a hard per-SM
  block cap) — :mod:`repro.gpu.scheduler`;
* global-memory **atomics serialize per cell** through FIFO resources —
  :mod:`repro.gpu.atomics`;
* stores to global memory **wake spinning readers** via signals —
  :mod:`repro.gpu.memory`;
* kernel launches are **asynchronous and stream-ordered**, so back-to-back
  launches pipeline (CPU implicit sync) unless the host synchronizes
  between them (CPU explicit sync) — :mod:`repro.gpu.host`.

Kernels are *device programs*: Python generator functions of the form
``def program(ctx: BlockCtx) -> Generator`` that use the :class:`BlockCtx`
helpers (``compute``, ``gread``, ``gwrite``, ``atomic_add``,
``spin_until``, ``syncthreads``) to interact with the device.
"""

from repro.gpu.config import DeviceConfig
from repro.gpu.context import BlockCtx
from repro.gpu.costmodel import StageCostModel
from repro.gpu.device import Device
from repro.gpu.host import Host, KernelHandle
from repro.gpu.kernel import KernelSpec
from repro.gpu.memory import GlobalArray, GlobalMemory
from repro.gpu.presets import get_preset, preset_names, register_preset
from repro.gpu.stream import Event, Stream
from repro.gpu.topology import Topology

__all__ = [
    "BlockCtx",
    "Device",
    "DeviceConfig",
    "Event",
    "GlobalArray",
    "GlobalMemory",
    "Host",
    "KernelHandle",
    "KernelSpec",
    "StageCostModel",
    "Stream",
    "Topology",
    "get_preset",
    "preset_names",
    "register_preset",
]
