"""Seeded-bug barrier variants: the sanitizer's own test fixtures.

Each mutant plants one realistic defect in a shipped strategy — the
kind of bug the paper's protocols are one typo away from — and exists
so the sanitizer can prove it *detects* things, not just that correct
code passes.  They are registered under ``broken-*`` names (never
selected by experiments) and each documents the finding kinds it must
trigger; ``tests/sanitize/test_mutation.py`` holds it to that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sync.base import register_strategy
from repro.sync.gpu_lockfree import GpuLockFreeSync
from repro.sync.gpu_simple import GpuSimpleSync

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx

__all__ = [
    "BrokenLockFreeNoScatter",
    "BrokenSimpleSkipRound",
    "BrokenSimpleUndercount",
]


class BrokenLockFreeNoScatter(GpuLockFreeSync):
    """Lock-free barrier whose checker never scatters to ``Arrayout``.

    The checking block gathers ``Arrayin`` correctly but the release
    store of Fig. 9 step 2 is dropped, so every block (checker included)
    spins on ``Arrayout`` forever.  Must be flagged as
    ``barrier-deadlock``.
    """

    name = "broken-lockfree-noscatter"

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator:
        arr_in, arr_out = self._array_in, self._array_out
        bid = ctx.block_id
        goal = round_idx + 1
        yield from ctx.compute(
            ctx.timings.lockfree_overhead_ns, phase="sync-overhead"
        )
        yield from ctx.gwrite(arr_in, bid, goal)
        if bid == self.checker_block:
            yield from ctx.spin_until(
                arr_in,
                lambda a=arr_in, g=goal: bool((a.data >= g).all()),
                f"Arrayin all set (round {round_idx})",
            )
            yield from ctx.syncthreads()
            # BUG: the Arrayout scatter is missing here.
        yield from ctx.spin_until(  # repro: noqa SC008
            arr_out,
            lambda a=arr_out, b=bid, g=goal: a.data[b] >= g,
            f"Arrayout[{bid}] (round {round_idx})",
        )
        yield from ctx.syncthreads()


class BrokenSimpleUndercount(GpuSimpleSync):
    """Simple barrier whose accumulating ``goalVal`` is under-counted.

    ``goalVal`` is ``round·N + 1`` instead of ``(round+1)·N``: the first
    block to arrive satisfies the goal and releases everyone, so the
    barrier opens ``N-1`` arrivals early every round.  Under skewed
    block timing this must be flagged as ``premature-release`` (and
    shows up as ``round-overlap`` in the trace).
    """

    name = "broken-simple-undercount"

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator:
        mutex = self._mutex
        n = ctx.num_blocks
        goal = round_idx * n + 1  # BUG: not (round_idx + 1) * n  # repro: noqa SC005
        yield from ctx.atomic_add(mutex, 0, 1)
        yield from ctx.spin_until(
            mutex, lambda: mutex.data[0] >= goal, f"g_mutex>={goal} (broken)"
        )
        yield from ctx.syncthreads()


class BrokenSimpleSkipRound(GpuSimpleSync):
    """Simple barrier that one block skips in round 0.

    Models the divergence bug the paper's Fig. 4 structure forbids: the
    last block takes a branch with no ``__gpu_sync`` call in the first
    round, so the grid disagrees on how many rounds were synchronized
    and the accumulating mutex count is permanently short.  Must be
    flagged as ``barrier-divergence`` (with the ensuing
    ``barrier-deadlock`` once the count deficit starves the grid).
    """

    name = "broken-simple-skipround"

    def instrumented_barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator:
        if round_idx == 0 and ctx.block_id == ctx.num_blocks - 1:  # repro: noqa SC001
            return  # BUG: this block never synchronizes round 0
        yield from super().instrumented_barrier(ctx, round_idx)


register_strategy("broken-lockfree-noscatter", BrokenLockFreeNoScatter)
register_strategy("broken-simple-undercount", BrokenSimpleUndercount)
register_strategy("broken-simple-skipround", BrokenSimpleSkipRound)
