"""Optional warp-level execution inside a block.

The simulator's default granularity is one agent per block (the paper's
"leading thread"), with intra-block parallelism folded into costs.  Some
protocols genuinely use multiple threads *as concurrent actors* — the
lock-free barrier's checking block runs its first N threads as N
independent watchers (paper §5.3 step 2).  This module provides real
concurrency below the block:

* :meth:`BlockCtx.run_warps <run_warps>` (exposed as a helper here)
  spawns one simulated agent per warp and joins them;
* :class:`WarpCtx` gives each warp the same memory helpers as a block;
* :class:`IntraBlockBarrier` is a *real* ``__syncthreads()`` between the
  block's warp agents: nobody proceeds until all arrived, and everyone
  pays the barrier latency after the last arrival.

``GpuLockFreeSync(detailed=True)`` uses this to execute the checking
block at warp granularity; ``tests/gpu/test_warps.py`` shows the
detailed execution reproduces the coarse model's timing exactly — the
evidence that folding intra-block parallelism into costs is sound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Tuple

from repro.errors import SyncProtocolError
from repro.simcore.effects import Delay, Join, Spawn, WaitUntil
from repro.simcore.signal import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.memory import GlobalArray

__all__ = ["IntraBlockBarrier", "WarpCtx", "run_warps"]


class IntraBlockBarrier:
    """A real ``__syncthreads()`` among a block's warp agents.

    Sense-free epoch counter: arrival increments a count; the last
    arriver advances the epoch and wakes everyone; all parties then pay
    the barrier latency before proceeding.
    """

    def __init__(self, block_ctx: "BlockCtx", parties: int):
        if parties < 1:
            raise SyncProtocolError(f"barrier needs >= 1 parties, got {parties}")
        self.block_ctx = block_ctx
        self.parties = parties
        self.epoch = 0
        self._arrived = 0
        self._signal = Signal(f"syncthreads:{block_ctx.owner}")

    def wait(self) -> Generator:
        """Arrive at the barrier; resumes once all parties have."""
        my_epoch = self.epoch
        self._arrived += 1
        if self._arrived == self.parties:
            self._arrived = 0
            self.epoch += 1
            self.block_ctx.device.engine.fire(self._signal)
        else:
            yield WaitUntil(
                self._signal,
                lambda: self.epoch > my_epoch,
                f"__syncthreads epoch {my_epoch} ({self.block_ctx.owner})",
            )
        yield Delay(self.block_ctx.timings.syncthreads_ns)


class WarpCtx:
    """One warp's view of the device (delegates to the block context)."""

    def __init__(
        self,
        block_ctx: "BlockCtx",
        warp_id: int,
        lanes: Tuple[int, int],
        barrier: IntraBlockBarrier,
    ):
        self.block = block_ctx
        self.warp_id = warp_id
        #: half-open [first_lane, last_lane) thread-id range of this warp.
        self.lanes = lanes
        self._barrier = barrier

    # Memory helpers — identical cost semantics to the block context.

    def gread(self, array: "GlobalArray", index: Any) -> Generator:
        """Global read (same cost model as the block context)."""
        value = yield from self.block.gread(array, index)
        return value

    def gwrite(self, array: "GlobalArray", index: Any, value: Any) -> Generator:
        """Global write (coalesced across the warp's lanes)."""
        yield from self.block.gwrite(array, index, value)

    def spin_until(
        self,
        array: "GlobalArray",
        predicate: Callable[[], bool],
        reason: str,
    ) -> Generator:
        """Spin-wait, one observation charged on success."""
        polls = yield from self.block.spin_until(
            array, predicate, f"w{self.warp_id}: {reason}"
        )
        return polls

    def syncthreads(self) -> Generator:
        """The block-wide barrier, as seen from this warp."""
        yield from self._barrier.wait()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WarpCtx({self.block.owner}/w{self.warp_id}, lanes={self.lanes})"


def run_warps(
    block_ctx: "BlockCtx",
    warp_fn: Callable[[WarpCtx], Generator],
    threads: int,
) -> Generator:
    """Run ``threads`` threads of this block as per-warp agents.

    ``warp_fn(warp_ctx)`` is spawned once per warp (``ceil(threads /
    warp_size)`` agents); this generator resumes when all warps finish.
    ``warp_ctx.syncthreads()`` inside the warp function is a *real*
    barrier among exactly these agents.  A block cancelled while its
    warps run (a killed kernel) cancels them too, so no warp is left
    parked on a barrier its block abandoned.
    """
    if threads < 1:
        raise SyncProtocolError(f"run_warps needs >= 1 threads, got {threads}")
    if threads > block_ctx.block_threads:
        raise SyncProtocolError(
            f"run_warps asked for {threads} threads but the block has "
            f"{block_ctx.block_threads}"
        )
    warp_size = block_ctx.device.config.warp_size
    num_warps = -(-threads // warp_size)
    barrier = IntraBlockBarrier(block_ctx, num_warps)
    agents: List = []
    for w in range(num_warps):
        lanes = (w * warp_size, min((w + 1) * warp_size, threads))
        wctx = WarpCtx(block_ctx, w, lanes, barrier)
        proc = yield Spawn(
            warp_fn(wctx), f"{block_ctx.owner}/w{w}"
        )
        agents.append(proc)
    try:
        for proc in agents:
            yield Join(proc, reason=f"join warps of {block_ctx.owner}")
    except GeneratorExit:
        # Engine.cancel closes the block's generator while it waits here.
        for proc in agents:
            block_ctx.device.engine.cancel(
                proc, f"block {block_ctx.owner} was cancelled"
            )
        raise
