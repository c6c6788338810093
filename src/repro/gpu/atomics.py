"""Per-cell serialization of global-memory atomic operations.

Hardware atomics to the *same* address serialize (read-modify-write at
the memory controller) while atomics to different addresses may proceed
in parallel through different partitions.  The paper's cost models depend
on exactly this: GPU simple sync pays ``N·t_a`` because all N blocks hit
one mutex (Eq. 6), while the tree barrier's groups update *different*
mutexes concurrently (Eq. 7).

We model it with one FIFO :class:`~repro.simcore.resource.Resource` per
``(array, flat index)`` cell, created lazily.  An ablation bench replaces
this with a single device-wide unit to show the tree advantage vanish.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.simcore.resource import Resource

__all__ = ["AtomicRegistry"]


class AtomicRegistry:
    """Lazily-created per-cell FIFO resources for atomic operations."""

    def __init__(self, device_wide: bool = False):
        #: if True, all atomics share one unit (ablation mode).
        self.device_wide = device_wide
        self._cells: Dict[Tuple[str, int], Resource] = {}
        self._global_unit = Resource("atomic-unit", capacity=1)
        #: total atomic operations issued (diagnostics / tests).
        self.ops = 0
        #: atomic ops whose store was lost to an injected ``atomic-drop``
        #: fault (:mod:`repro.faults`); always 0 on unarmed devices.
        self.faulted_ops = 0

    def unit_for(self, array_name: str, index: int) -> Resource:
        """The serialization resource guarding one cell."""
        if self.device_wide:
            return self._global_unit
        key = (array_name, int(index))
        unit = self._cells.get(key)
        if unit is None:
            unit = Resource(f"atomic:{array_name}[{index}]", capacity=1)
            self._cells[key] = unit
        return unit
