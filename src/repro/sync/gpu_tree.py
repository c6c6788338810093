"""GPU tree-based synchronization (paper §5.2, Fig. 8).

Blocks are partitioned into groups (2-level: ``m = ceil(sqrt(N))`` groups,
Eq. 8); each block atomically increments its *group's* mutex, the group's
representative (its first block) waits for the group to fill and then
increments the next level's mutex, and so on up to a single top-level
mutex that every block spins on.  Atomics to different group mutexes
proceed concurrently — that is the whole point — so the serialized chain
is ``n̂`` at each level plus the representatives at the top (Eq. 7).

The implementation is level-generic: ``levels=2`` and ``levels=3`` are
the paper's variants, and deeper trees (a future-work extension) come for
free.  The group plan is shared with the analytic model
(:func:`repro.model.barrier_costs.tree_level_plan`), so protocol and
prediction cannot drift apart.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, Generator, List, TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import SyncProtocolError
from repro.model.barrier_costs import tree_level_plan
from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalArray

__all__ = ["GpuTreeSync"]

_INSTANCES = count()


class GpuTreeSync(SyncStrategy):
    """The multi-level mutex-tree device barrier."""

    mode = "device"
    #: degrade target when the barrier repeatedly stalls (resilient runtime).
    fallback = "cpu-implicit"

    def __init__(self, levels: int = 2) -> None:
        if levels < 2:
            raise SyncProtocolError(f"tree barrier needs >= 2 levels, got {levels}")
        self.levels = levels
        self.name = f"gpu-tree-{levels}"
        self._uid = next(_INSTANCES)
        self._num_blocks = 0
        self._mutexes: List["GlobalArray"] = []
        #: per level: group sizes.
        self._plan: List[List[int]] = []
        #: per level: participant block id → (group index, is_representative).
        self._roles: List[Dict[int, Tuple[int, bool]]] = []
        #: participants (block ids) at each level.
        self._participants: List[List[int]] = []

    # -- setup ---------------------------------------------------------------

    def prepare(self, device: "Device", num_blocks: int) -> None:
        self.validate_grid(device.config, num_blocks)
        self._num_blocks = num_blocks
        self._plan = tree_level_plan(num_blocks, self.levels)
        self._mutexes = []
        self._roles = []
        self._participants = []

        participants = list(range(num_blocks))
        for level, sizes in enumerate(self._plan):
            mutex = device.memory.alloc(
                f"tree_mutex#{self._uid}_L{level}", len(sizes), dtype=np.int64, reuse=True
            )
            self._mutexes.append(mutex)
            roles: Dict[int, Tuple[int, bool]] = {}
            reps: List[int] = []
            offset = 0
            for group, size in enumerate(sizes):
                members = participants[offset : offset + size]
                for i, block in enumerate(members):
                    roles[block] = (group, i == 0)
                reps.append(members[0])
                offset += size
            self._roles.append(roles)
            self._participants.append(participants)
            participants = reps

    # -- the barrier -----------------------------------------------------------

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        if not self._mutexes:
            raise SyncProtocolError(f"{self.name} barrier used before prepare()")
        if ctx.num_blocks != self._num_blocks:
            raise SyncProtocolError(
                f"{self.name} prepared for {self._num_blocks} blocks, "
                f"called with {ctx.num_blocks}"
            )
        start = ctx.now
        bid = ctx.block_id
        timings = ctx.timings

        # Per-level bookkeeping overhead: group-id arithmetic and the extra
        # divergent branches every thread executes (the reason the paper's
        # tree threshold is "larger than 4", §5.2).
        yield from ctx.compute(
            len(self._plan) * timings.tree_level_overhead_ns,
            phase="sync-overhead",
        )

        # Climb: add to this level's group mutex; only representatives
        # continue upward after their group fills.
        for level, sizes in enumerate(self._plan):
            roles = self._roles[level]
            if bid not in roles:
                break
            group, is_rep = roles[bid]
            mutex = self._mutexes[level]
            yield from ctx.atomic_add(mutex, group, 1)
            is_top = level == len(self._plan) - 1
            if is_top:
                break
            if not is_rep:
                break
            goal = (round_idx + 1) * sizes[group]
            yield from ctx.spin_until(
                mutex,
                lambda m=mutex, g=group, t=goal: m.data[g] >= t,
                f"L{level} group {group} full (round {round_idx})",
            )

        # Everyone waits on the top-level mutex.
        top = self._mutexes[-1]
        top_goal = (round_idx + 1) * self._plan[-1][0]
        yield from ctx.spin_until(
            top,
            lambda m=top, t=top_goal: m.data[0] >= t,
            f"top mutex (round {round_idx})",
        )
        yield from ctx.syncthreads()
        ctx.record("sync", start, round=round_idx, strategy=self.name)


register_strategy("gpu-tree-2", lambda: GpuTreeSync(levels=2))
register_strategy("gpu-tree-3", lambda: GpuTreeSync(levels=3))
