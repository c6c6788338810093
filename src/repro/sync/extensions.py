"""Extension barriers beyond the paper's three proposals.

The paper's related-work section (§3) points at the classic
shared-memory barrier literature [8, 11, 17] but only adapts the
centralized-counter idea. Two more of those classics are implemented
here on the same device model, both safe under CUDA's non-preemptive
blocks because they never require a waiting block to yield:

* :class:`GpuSenseReversalSync` (``gpu-sense-reversal``) — the textbook
  centralized sense-reversing barrier: an atomic arrival counter whose
  *last* arriver resets the count and publishes a new epoch ("flips the
  sense"); everyone else spins on the epoch word. Structurally the
  paper's GPU simple synchronization is this barrier with the
  reset-and-flip replaced by an accumulating goal value — comparing the
  two quantifies what that §5.1 optimization buys.
* :class:`GpuDisseminationSync` (``gpu-dissemination``) — the
  Hensgen/Finney/Manber dissemination barrier: ``ceil(log2 N)`` rounds
  in which block ``i`` signals block ``(i + 2^k) mod N`` and waits for
  block ``(i - 2^k) mod N``. No atomics, no central hot spot, no
  designated checking block; depth O(log N) instead of the lock-free
  barrier's O(1)-with-a-coordinator. This is the shape later grid-sync
  implementations (and the cooperative-groups literature) converged on
  for large block counts.

Analytic costs (same style as Eqs. 6–9) live in
:func:`sense_reversal_cost` and :func:`dissemination_cost`;
``benchmarks/bench_extensions.py`` compares all five device barriers.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional, TYPE_CHECKING

import numpy as np

from repro.model.calibration import CalibratedTimings, default_timings
from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalArray

__all__ = [
    "GpuDisseminationSync",
    "GpuSenseReversalSync",
    "dissemination_cost",
    "sense_reversal_cost",
]

def sense_reversal_cost(
    num_blocks: int, timings: Optional[CalibratedTimings] = None
) -> int:
    """Analytic cost of the centralized sense-reversing barrier.

    ``N·t_a`` serialized arrivals, then the last arriver's two stores
    (counter reset, then the sense flip — ordered, so both are exposed),
    then one observation and the closing ``__syncthreads()`` — i.e. the
    paper's Eq. 6 plus two global writes, which is exactly what the
    §5.1 goal-accumulation optimization saves.
    """
    t = timings or default_timings()
    return (
        num_blocks * t.atomic_ns
        + 2 * t.global_write_ns
        + t.spin_read_ns
        + t.syncthreads_ns
    )


def dissemination_cost(
    num_blocks: int, timings: Optional[CalibratedTimings] = None
) -> int:
    """Analytic cost of the dissemination barrier.

    ``ceil(log2 N)`` rounds, each a remote store plus one observation of
    the incoming flag; all blocks proceed in lock-step so the critical
    path is the per-round cost times the round count, plus the closing
    ``__syncthreads()``.
    """
    t = timings or default_timings()
    rounds = max(1, math.ceil(math.log2(num_blocks))) if num_blocks > 1 else 0
    return rounds * (t.global_write_ns + t.spin_read_ns) + t.syncthreads_ns


class GpuSenseReversalSync(SyncStrategy):
    """Centralized sense-reversing barrier (classic, for comparison)."""

    name = "gpu-sense-reversal"
    mode = "device"
    _count: "GlobalArray"
    _sense: "GlobalArray"

    def prepare(self, device: "Device", num_blocks: int) -> None:
        super().prepare(device, num_blocks)
        self._count = device.memory.alloc(
            f"sr_count#{self._uid}", 1, dtype=np.int64, reuse=True
        )
        self._sense = device.memory.alloc(
            f"sr_sense#{self._uid}", 1, dtype=np.int64, reuse=True
        )

    def protocol(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        n = ctx.num_blocks
        epoch = round_idx + 1
        old = yield from ctx.atomic_add(self._count, 0, 1)
        if old == n - 1:
            # Last arriver: reset the counter for the next epoch, then
            # publish the new sense. The reset must land before the
            # sense flip so no block of the next epoch races the counter.
            # Sense reversal *is* the counter-reset design; the sense
            # flip (not an accumulating goalVal) closes the race SC005
            # warns about, so the reset is deliberate here.
            yield from ctx.gwrite(self._count, 0, 0)  # repro: noqa SC005
            yield from ctx.gwrite(self._sense, 0, epoch)
        else:
            yield from ctx.spin_until(
                self._sense,
                lambda s=self._sense, e=epoch: s.data[0] >= e,
                f"sense epoch {epoch}",
            )


class GpuDisseminationSync(SyncStrategy):
    """Hensgen/Finney/Manber dissemination barrier on global memory."""

    name = "gpu-dissemination"
    mode = "device"
    #: signalling rounds per barrier, ``ceil(log2 N)``.
    _rounds: int
    _flags: "GlobalArray"  # shape (rounds, N)

    def prepare(self, device: "Device", num_blocks: int) -> None:
        super().prepare(device, num_blocks)
        self._rounds = (
            max(1, math.ceil(math.log2(num_blocks))) if num_blocks > 1 else 0
        )
        shape = (max(1, self._rounds), num_blocks)
        self._flags = device.memory.alloc(
            f"dissem_flags#{self._uid}", shape, dtype=np.int64, reuse=True
        )

    def protocol(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        flags = self._flags
        n = ctx.num_blocks
        bid = ctx.block_id
        epoch = round_idx + 1
        for k in range(self._rounds):
            partner = (bid + (1 << k)) % n
            # Epochs accumulate in the flag words, so no reset round is
            # needed and a fast block's next-epoch store can never be
            # confused with this epoch's.
            yield from ctx.gwrite(flags, (k, partner), epoch)
            yield from ctx.spin_until(
                flags,
                lambda f=flags, k=k, b=bid, e=epoch: f.data[k, b] >= e,
                f"dissemination round {k} epoch {epoch}",
            )


register_strategy("gpu-sense-reversal", GpuSenseReversalSync)
register_strategy("gpu-dissemination", GpuDisseminationSync)
