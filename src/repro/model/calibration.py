"""Calibrated timing constants for the simulated GTX 280.

Every constant below is in **nanoseconds** and is derived from numbers the
paper itself reports, so the simulator's behaviour is anchored to the
paper's testbed rather than invented.  Derivations:

**CPU-side / per-kernel costs** (paper §5.4, Fig. 11):

* The micro-benchmark's computation takes ~5 ms per 10 000 rounds
  → **500 ns of computation per round**.
* CPU *implicit* synchronization costs ~60 ms per 10 000 rounds
  → **6 000 ns per kernel boundary**.  We model this as device-side
  per-kernel overhead (block dispatch at kernel start + drain/teardown at
  kernel end: ``KERNEL_SETUP_NS + KERNEL_TEARDOWN_NS = 6 000``) because it
  is paid even when launches are pipelined.
* The headline result says GPU lock-free is **7.8×** faster than CPU
  explicit and **3.7×** faster than CPU implicit.  With implicit at
  6 000 ns that puts lock-free at ~1 600 ns and explicit at ~12 500 ns per
  round; the explicit surplus (~6 500 ns) is the *unpipelined* host launch
  command, so **HOST_LAUNCH_NS = 6 500**.
* The asynchronous launch call itself occupies the host CPU briefly
  (driver work before the call returns); 2 000 ns keeps the host from
  ever being the pipeline bottleneck, matching Fig. 3's geometry.

**GPU barrier primitive costs** (paper §5.1–5.4, Fig. 11):

* GPU simple sync crosses CPU implicit between 23 and 24 blocks and is
  linear: ``N·t_a + t_c = 6 000`` near ``N ≈ 23.5``.  A GTX 280 global
  atomic costs roughly 300+ clocks at 1.296 GHz ≈ 240 ns, so
  **ATOMIC_NS = 240**; the residual fixed cost (one successful spin read
  + the closing ``__syncthreads()``) must then land in (240, 480) ns for
  the crossover to sit between 23 and 24, giving **SPIN_READ_NS = 200**
  and **SYNCTHREADS_NS = 150** (350 total: simple(23) = 5 870 < 6 000 <
  simple(24) = 6 110).
* GPU 2-level tree sync overtakes simple sync at 11 blocks.  Each tree
  level adds bookkeeping beyond the raw atomics (group-id computation, a
  second spin loop): with per-level overhead ``L``, the 10/11-block
  crossover requires ``260 < L < 380``; **TREE_LEVEL_OVERHEAD_NS = 320**.
* GPU lock-free sync is flat at ~1 600 ns.  Its critical path is
  store(Arrayin) → observe → __syncthreads → store(Arrayout) → observe →
  __syncthreads: ``300 + 200 + 150 + 300 + 200 + 150 + fixed``.  With
  **GLOBAL_WRITE_NS = 300** and **GLOBAL_READ_NS = 200** that is 1 300 ns;
  a **LOCKFREE_OVERHEAD_NS = 300** entry/bookkeeping term lands it at
  1 600 ns.

**Per-algorithm computation costs** (paper Table 1 and §7):

Per-item costs are chosen so that, with CPU implicit synchronization and
the default problem sizes, the share of time spent synchronizing matches
Table 1 (FFT 19.6 %, SWat 49.7 %, bitonic sort 59.6 %).  See
:mod:`repro.algorithms` for how items map to threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import require_int
from repro.errors import ConfigError

__all__ = [
    "CalibratedTimings",
    "default_timings",
    # raw constants (re-exported for documentation/tests)
    "HOST_LAUNCH_NS",
    "HOST_ASYNC_CALL_NS",
    "KERNEL_SETUP_NS",
    "KERNEL_TEARDOWN_NS",
    "ATOMIC_NS",
    "SPIN_READ_NS",
    "GLOBAL_READ_NS",
    "GLOBAL_WRITE_NS",
    "SYNCTHREADS_NS",
    "TREE_LEVEL_OVERHEAD_NS",
    "LOCKFREE_OVERHEAD_NS",
    "MICRO_ROUND_COMPUTE_NS",
    "MEMCPY_OVERHEAD_NS",
    "SHARED_ACCESS_NS",
]

#: Host→device launch command when it cannot be pipelined (CPU explicit).
HOST_LAUNCH_NS = 6_500
#: Host CPU time occupied by an asynchronous launch call before it returns.
HOST_ASYNC_CALL_NS = 2_000
#: Device-side block dispatch when a kernel starts.
KERNEL_SETUP_NS = 3_000
#: Device-side drain/teardown when a kernel ends.
KERNEL_TEARDOWN_NS = 3_000
#: Service time of one global-memory atomic operation (serialized per cell).
ATOMIC_NS = 240
#: Cost of the successful observation ending a spin loop.
SPIN_READ_NS = 200
#: Latency of an ordinary (non-spin) global-memory read.
GLOBAL_READ_NS = 200
#: Latency of a global-memory write becoming visible to other blocks.
GLOBAL_WRITE_NS = 300
#: Cost of one intra-block __syncthreads().
SYNCTHREADS_NS = 150
#: Extra bookkeeping per tree level (group-id math, extra spin loop).
TREE_LEVEL_OVERHEAD_NS = 320
#: Fixed entry/bookkeeping cost of the lock-free barrier.
LOCKFREE_OVERHEAD_NS = 300
#: Computation per micro-benchmark round (mean of two floats, weak scaled).
MICRO_ROUND_COMPUTE_NS = 500
#: Fixed driver overhead of one cudaMemcpy call (typical ~10 µs in the
#: CUDA 2.x era; the paper's measurements exclude transfers, so this only
#: feeds the staging API, not the reproduced figures).
MEMCPY_OVERHEAD_NS = 10_000
#: One shared-memory transaction (a few cycles, bank-conflict-free —
#: roughly an order of magnitude below a global read, paper §2).
SHARED_ACCESS_NS = 30


@dataclass(frozen=True)
class CalibratedTimings:
    """The full timing parameter set consumed by the device model.

    All fields are nanoseconds.  Instances are immutable; use
    :func:`dataclasses.replace` to derive variants (the ablation benches
    do this, e.g. zeroing pipelining or widening the atomic unit).
    """

    host_launch_ns: int = HOST_LAUNCH_NS
    host_async_call_ns: int = HOST_ASYNC_CALL_NS
    kernel_setup_ns: int = KERNEL_SETUP_NS
    kernel_teardown_ns: int = KERNEL_TEARDOWN_NS
    atomic_ns: int = ATOMIC_NS
    spin_read_ns: int = SPIN_READ_NS
    global_read_ns: int = GLOBAL_READ_NS
    global_write_ns: int = GLOBAL_WRITE_NS
    syncthreads_ns: int = SYNCTHREADS_NS
    tree_level_overhead_ns: int = TREE_LEVEL_OVERHEAD_NS
    lockfree_overhead_ns: int = LOCKFREE_OVERHEAD_NS
    micro_round_compute_ns: int = MICRO_ROUND_COMPUTE_NS
    memcpy_overhead_ns: int = MEMCPY_OVERHEAD_NS
    shared_access_ns: int = SHARED_ACCESS_NS

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            require_int(f"timing {name}", value)
            if value < 0:
                raise ConfigError(
                    f"timing {name} must be non-negative, got {value}"
                )

    @property
    def cpu_implicit_barrier_ns(self) -> int:
        """Per-round cost of a CPU implicit barrier (kernel boundary)."""
        return self.kernel_setup_ns + self.kernel_teardown_ns

    @property
    def cpu_explicit_barrier_ns(self) -> int:
        """Per-round cost of a CPU explicit barrier (boundary + serial launch)."""
        return self.cpu_implicit_barrier_ns + self.host_launch_ns


def default_timings() -> CalibratedTimings:
    """The GTX 280 calibration described in this module's docstring."""
    return CalibratedTimings()
