"""GPU lock-free synchronization (paper §5.3, Fig. 9) — no atomics at all.

Protocol per round (``goalVal`` accumulates, as in §5.1):

1. block *i*'s leading thread stores ``goalVal`` into ``Arrayin[i]`` and
   then busy-waits on ``Arrayout[i]``;
2. the *checking block* (block 1, as in the paper's Fig. 9) uses its
   first N threads to watch the N ``Arrayin`` slots **in parallel**; when
   all are set it calls ``__syncthreads()`` and the same N threads store
   ``goalVal`` into all of ``Arrayout`` in parallel;
3. every leading thread sees its ``Arrayout[i]`` set and releases its
   block with ``__syncthreads()``.

Because nothing contends, the cost (Eq. 9) is a constant independent of
the number of blocks — the flat line in Fig. 11.

The paper highlights the N-parallel-checker design choice ("turns out to
save considerable synchronization overhead"); ``serial_gather=True``
builds the rejected single-thread variant for the ablation bench, whose
cost grows linearly with N.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.errors import SyncProtocolError
from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalArray
    from repro.gpu.warps import WarpCtx

__all__ = ["GpuLockFreeSync"]


class GpuLockFreeSync(SyncStrategy):
    """The two-array, atomic-free device barrier."""

    name = "gpu-lockfree"
    mode = "device"
    _array_in: "GlobalArray"
    _array_out: "GlobalArray"

    def __init__(self, serial_gather: bool = False, detailed: bool = False) -> None:
        super().__init__()
        #: ablation flag: one checker thread scans Arrayin serially
        #: instead of N threads in parallel (paper §5.3 step 2 note).
        self.serial_gather = serial_gather
        #: execute the checking block at warp granularity (real agents,
        #: real __syncthreads) instead of the folded cost model — see
        #: :mod:`repro.gpu.warps`. Timing-equivalent by construction;
        #: tests assert it.
        self.detailed = detailed
        if serial_gather and detailed:
            raise SyncProtocolError(
                "serial_gather and detailed are mutually exclusive"
            )
        if serial_gather:
            self.name = "gpu-lockfree-serial"
        elif detailed:
            self.name = "gpu-lockfree-detailed"

    def prepare(self, device: "Device", num_blocks: int) -> None:
        super().prepare(device, num_blocks)
        self._array_in = device.memory.alloc(
            f"Arrayin#{self._uid}", num_blocks, dtype=np.int64, reuse=True
        )
        self._array_out = device.memory.alloc(
            f"Arrayout#{self._uid}", num_blocks, dtype=np.int64, reuse=True
        )

    @property
    def checker_block(self) -> int:
        """The block whose threads gather/scatter (block 1, per Fig. 9)."""
        return 1 if self._num_blocks > 1 else 0

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        """The base frame, after checking that a block has a thread per block."""
        frame = super().barrier(ctx, round_idx)
        if ctx.block_threads < self._num_blocks:
            raise SyncProtocolError(
                f"gpu-lockfree needs >= {self._num_blocks} threads in the "
                f"checking block to watch Arrayin in parallel; kernel has "
                f"{ctx.block_threads} threads/block"
            )
        return frame

    def protocol(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        arr_in, arr_out = self._array_in, self._array_out
        bid = ctx.block_id
        goal = round_idx + 1
        n = ctx.num_blocks

        # Entry bookkeeping (index math, branch setup).
        yield from ctx.compute(
            ctx.timings.lockfree_overhead_ns, phase="sync-overhead"
        )

        # Step 1: publish arrival.
        yield from ctx.gwrite(arr_in, bid, goal)

        # Step 2: the checking block gathers and scatters.
        if bid == self.checker_block:
            if self.detailed:
                # Warp-granular execution of Fig. 9: thread i (grouped
                # into warps) watches Arrayin[i], real __syncthreads(),
                # then stores Arrayout[i].
                from repro.gpu.warps import run_warps

                def checker_warp(wctx: "WarpCtx") -> Generator[Any, Any, Any]:
                    lo, hi = wctx.lanes
                    yield from wctx.spin_until(
                        arr_in,
                        lambda a=arr_in, lo=lo, hi=hi, g=goal: bool(
                            (a.data[lo:hi] >= g).all()
                        ),
                        f"Arrayin[{lo}:{hi}] (round {round_idx})",
                    )
                    yield from wctx.syncthreads()
                    yield from wctx.gwrite(arr_out, slice(lo, hi), goal)

                yield from run_warps(ctx, checker_warp, n)
            elif self.serial_gather:
                # Rejected design: thread 0 walks Arrayin one slot at a time.
                for i in range(n):
                    yield from ctx.spin_until(
                        arr_in,
                        lambda a=arr_in, i=i, g=goal: a.data[i] >= g,
                        f"Arrayin[{i}] (serial, round {round_idx})",
                    )
                yield from ctx.syncthreads()
                for i in range(n):
                    yield from ctx.gwrite(arr_out, i, goal)
            else:
                # Paper's design: thread i watches Arrayin[i]; the N checks
                # proceed in parallel, so one observation latency covers all.
                yield from ctx.spin_until(
                    arr_in,
                    lambda a=arr_in, g=goal: bool((a.data >= g).all()),
                    f"Arrayin all set (round {round_idx})",
                )
                yield from ctx.syncthreads()
                # N threads store in parallel: one coalesced write latency.
                yield from ctx.gwrite(arr_out, slice(None), goal)

        # Step 3: wait for the release flag.
        yield from ctx.spin_until(
            arr_out,
            lambda a=arr_out, b=bid, g=goal: a.data[b] >= g,
            f"Arrayout[{bid}] (round {round_idx})",
        )


register_strategy("gpu-lockfree", GpuLockFreeSync)
register_strategy("gpu-lockfree-serial", lambda: GpuLockFreeSync(serial_gather=True))
register_strategy("gpu-lockfree-detailed", lambda: GpuLockFreeSync(detailed=True))
