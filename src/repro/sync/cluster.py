"""Hierarchical tree-over-clusters barrier for clustered topologies.

The many-core cluster machines (arXiv 2307.10248 — 1024 RISC-V cores in
clusters with cheap local synchronization and an expensive global
interconnect) want a barrier shaped like the hardware: synchronize
*locally* first, send one representative per cluster group across the
interconnect, then release locally.  This strategy does exactly that on
top of the device topology (:mod:`repro.gpu.topology`):

1. **Local phase** — every block atomically increments its domain's
   arrival counter, which is *homed in that domain* so the add is cheap.
2. **Global phase** — each domain's representative (its first block)
   waits for its domain to fill, then increments one global counter;
   only these ``num_domains`` arrivals cross the interconnect.
3. **Release** — once the global counter shows every domain arrived,
   each representative stores the round number into its domain's local
   release flag; its blocks observe the store locally.

On a single-domain topology the tree degenerates to one local group plus
a trivial global phase — correct, just not the barrier you'd choose
(use ``gpu-simple``/``gpu-tree-*`` there).  All counters accumulate
monotonically across rounds (goal ``= (round+1) × size``), the same
reset-free idiom as :class:`~repro.sync.gpu_simple.GpuSimpleSync`, so
rounds can never observe each other's state.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, Generator, List, TYPE_CHECKING

import numpy as np

from repro.errors import SyncProtocolError
from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalArray

__all__ = ["GpuClusterTreeSync"]

_INSTANCES = count()


class GpuClusterTreeSync(SyncStrategy):
    """Local arrive → one crossing per domain → local release."""

    name = "gpu-cluster-tree"
    mode = "device"
    #: degrade target when the barrier repeatedly stalls (resilient runtime).
    fallback = "cpu-implicit"

    def __init__(self) -> None:
        self._uid = next(_INSTANCES)
        self._num_blocks = 0
        #: occupied domain → sorted member block ids.
        self._members: Dict[int, List[int]] = {}
        #: occupied domain → locally-homed arrival counter.
        self._arrive: Dict[int, "GlobalArray"] = {}
        #: occupied domain → locally-homed release flag.
        self._release: Dict[int, "GlobalArray"] = {}
        self._global: "GlobalArray | None" = None

    # -- setup ---------------------------------------------------------------

    def prepare(self, device: "Device", num_blocks: int) -> None:
        self.validate_grid(device.config, num_blocks)
        self._num_blocks = num_blocks
        topology = device.config.topology
        self._members = topology.members_by_domain(num_blocks)
        self._arrive = {}
        self._release = {}
        for domain in self._members:
            self._arrive[domain] = device.memory.alloc(
                f"cluster_arrive#{self._uid}_d{domain}",
                1,
                dtype=np.int64,
                reuse=True,
                home_domain=domain,
            )
            self._release[domain] = device.memory.alloc(
                f"cluster_release#{self._uid}_d{domain}",
                1,
                dtype=np.int64,
                reuse=True,
                home_domain=domain,
            )
        self._global = device.memory.alloc(
            f"cluster_global#{self._uid}",
            1,
            dtype=np.int64,
            reuse=True,
            home_domain=min(self._members),
        )

    # -- the barrier -----------------------------------------------------------

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        if self._global is None:
            raise SyncProtocolError(f"{self.name} barrier used before prepare()")
        if ctx.num_blocks != self._num_blocks:
            raise SyncProtocolError(
                f"{self.name} prepared for {self._num_blocks} blocks, "
                f"called with {ctx.num_blocks}"
            )
        start = ctx.now
        timings = ctx.timings
        domain = ctx.domain
        members = self._members[domain]
        arrive = self._arrive[domain]
        release = self._release[domain]

        # Two tree levels of bookkeeping: domain-id arithmetic plus the
        # representative branch (same accounting as GpuTreeSync).
        yield from ctx.compute(
            2 * timings.tree_level_overhead_ns, phase="sync-overhead"
        )

        # Local phase: arrive at the domain's own counter (cheap — the
        # counter is homed here, so no interconnect crossing).
        yield from ctx.atomic_add(arrive, 0, 1)

        if ctx.block_id == members[0]:
            # Representative: wait for the local group, carry one arrival
            # across the interconnect, wait for the other domains, then
            # release the local group.
            local_goal = (round_idx + 1) * len(members)
            yield from ctx.spin_until(
                arrive,
                lambda a=arrive, t=local_goal: bool(a.data[0] >= t),
                f"domain {domain} full (round {round_idx})",
            )
            glob = self._global
            yield from ctx.atomic_add(glob, 0, 1)
            global_goal = (round_idx + 1) * len(self._members)
            yield from ctx.spin_until(
                glob,
                lambda g=glob, t=global_goal: bool(g.data[0] >= t),
                f"all domains arrived (round {round_idx})",
            )
            yield from ctx.gwrite(release, 0, round_idx + 1)
        else:
            # Non-representative: the release flag is local, and it only
            # ever moves forward — a late spinner sees a value >= its
            # round and falls straight through.
            yield from ctx.spin_until(
                release,
                lambda r=release, t=round_idx + 1: bool(r.data[0] >= t),
                f"domain {domain} release (round {round_idx})",
            )
        yield from ctx.syncthreads()
        ctx.record("sync", start, round=round_idx, strategy=self.name)


register_strategy("gpu-cluster-tree", GpuClusterTreeSync)
