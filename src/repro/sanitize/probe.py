"""The instrumentation probe: live observation of a sanitized run.

A :class:`SanitizerProbe` registers on ``Device.probes`` and receives
two event streams while the simulation runs:

* **barrier events** from :meth:`repro.sync.base.SyncStrategy.barrier`
  — every block's entry into and exit from each barrier round,
  timestamped in virtual time, whether the runner or a hand-written
  kernel calls the barrier;
* **global-memory accesses** from :class:`repro.gpu.context.BlockCtx` —
  every ``gread``/``gwrite``/``atomic_add``/``spin_until``, tagged with
  the issuing block, the touched cells, and the block's current barrier
  *epoch* (completed rounds).

Collecting live (rather than post-hoc from the trace) matters for the
deadlock cases: a block stuck inside a barrier never records its trace
span, but its enter event is already here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["AccessEvent", "BarrierEvent", "SanitizerProbe"]


@dataclass(frozen=True)
class BarrierEvent:
    """One block entering or exiting one barrier round."""

    kernel: str
    block: int
    round: int
    kind: str  #: ``"enter"`` or ``"exit"``
    time: int  #: virtual ns


@dataclass(frozen=True)
class AccessEvent:
    """One global-memory access by one block."""

    kernel: str
    block: int
    array: str
    cells: Tuple[int, ...]  #: flattened element indices touched
    kind: str  #: ``"read"``, ``"write"``, ``"atomic"`` or ``"spin"``
    time: int  #: virtual ns
    epoch: int  #: barrier rounds the block had completed at access time
    in_barrier: bool  #: issued from inside a barrier protocol


def _flatten_cells(array, index: Any) -> Tuple[int, ...]:
    """Flattened element ids an index expression touches.

    Indexing an array of element ids with the caller's expression makes
    every NumPy index form (scalar, slice, tuple, fancy) resolve to the
    exact cell set without re-implementing indexing semantics.
    """
    if index is None:
        return ()
    ids = np.arange(array.data.size).reshape(array.data.shape)
    return tuple(int(c) for c in np.atleast_1d(ids[index]).ravel())


class SanitizerProbe:
    """Collects barrier and access events for one simulated run."""

    def __init__(self) -> None:
        self.barrier_events: List[BarrierEvent] = []
        self.accesses: List[AccessEvent] = []
        #: (kernel, block) → completed barrier rounds.
        self._epoch: Dict[Tuple[str, int], int] = {}
        #: (kernel, block) → round currently inside (None when outside).
        self._inside: Dict[Tuple[str, int], Optional[int]] = {}

    # -- hooks called by the device model ------------------------------------

    def on_barrier_enter(self, ctx, strategy, round_idx: int) -> None:
        key = (ctx.kernel_name, ctx.block_id)
        self._inside[key] = round_idx
        self.barrier_events.append(
            BarrierEvent(ctx.kernel_name, ctx.block_id, round_idx, "enter", ctx.now)
        )

    def on_barrier_exit(self, ctx, strategy, round_idx: int) -> None:
        key = (ctx.kernel_name, ctx.block_id)
        self._inside[key] = None
        self._epoch[key] = self._epoch.get(key, 0) + 1
        self.barrier_events.append(
            BarrierEvent(ctx.kernel_name, ctx.block_id, round_idx, "exit", ctx.now)
        )

    def on_access(self, ctx, array, index: Any, kind: str) -> None:
        key = (ctx.kernel_name, ctx.block_id)
        self.accesses.append(
            AccessEvent(
                kernel=ctx.kernel_name,
                block=ctx.block_id,
                array=array.name,
                cells=_flatten_cells(array, index),
                kind=kind,
                time=ctx.now,
                epoch=self._epoch.get(key, 0),
                in_barrier=self._inside.get(key) is not None,
            )
        )

    # -- post-run introspection ----------------------------------------------

    def entered_rounds(self) -> Dict[int, List[int]]:
        """Block id → sorted list of barrier rounds the block entered."""
        seen: Dict[int, set] = {}
        for ev in self.barrier_events:
            if ev.kind == "enter":
                seen.setdefault(ev.block, set()).add(ev.round)
        return {b: sorted(rounds) for b, rounds in sorted(seen.items())}

    def stuck_blocks(self) -> List[Tuple[int, int]]:
        """``(block, round)`` pairs that entered a barrier but never exited."""
        pending: Dict[Tuple[str, int], int] = {}
        for ev in self.barrier_events:
            key = (ev.kernel, ev.block)
            if ev.kind == "enter":
                pending[key] = ev.round
            else:
                pending.pop(key, None)
        return sorted((block, rnd) for (_k, block), rnd in pending.items())

    def round_window(self, round_idx: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per-block enter and exit times of one barrier round."""
        enters: Dict[int, int] = {}
        exits: Dict[int, int] = {}
        for ev in self.barrier_events:
            if ev.round != round_idx:
                continue
            target = enters if ev.kind == "enter" else exits
            target.setdefault(ev.block, ev.time)
        return enters, exits

    def rounds_seen(self) -> List[int]:
        """All barrier round indices any block entered, sorted."""
        return sorted({ev.round for ev in self.barrier_events if ev.kind == "enter"})
