"""Simulated global memory: named NumPy-backed arrays with store watchers.

A :class:`GlobalArray` is the device's view of one allocation.  Stores go
through :meth:`GlobalArray.store`, which updates the backing NumPy array
and fires the array's :class:`~repro.simcore.signal.Signal`, waking any
block whose spin predicate now holds — this is how the paper's
``while (g_mutex != goalVal)`` loops resolve without busy-ticking.

Host code (and test assertions) may read or write the backing ``data``
array directly at zero simulated cost, mirroring how cudaMemcpy'd inputs
appear in device memory before a kernel starts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MemoryError_
from repro.simcore.engine import Engine
from repro.simcore.signal import Signal

__all__ = ["GlobalArray", "GlobalMemory"]

Index = Union[int, Tuple[Any, ...], slice]


class GlobalArray:
    """One named allocation in simulated global memory."""

    def __init__(
        self,
        memory: "GlobalMemory",
        name: str,
        data: np.ndarray,
        home_domain: int = 0,
    ):
        self._memory = memory
        self.name = name
        self.data = data
        self.signal = Signal(f"mem:{name}")
        #: which sync domain this allocation is homed in; accesses from
        #: other domains pay the topology's crossing latency.
        self.home_domain = home_domain
        #: store/load counters for tests and diagnostics.
        self.stores = 0
        self.loads = 0

    # -- zero-cost accessors (device semantics handled by BlockCtx) --------

    def load(self, index: Index) -> Any:
        """Read a value (no simulated cost — callers charge latency)."""
        self.loads += 1
        return self.data[index]

    def store(self, index: Index, value: Any) -> None:
        """Write a value and wake spinners whose predicates now hold."""
        self.data[index] = value
        self.stores += 1
        self._memory.engine.fire(self.signal)

    def fill(self, value: Any) -> None:
        """Host-side bulk initialization (fires watchers once)."""
        self.data[...] = value
        self.stores += 1
        self._memory.engine.fire(self.signal)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GlobalArray({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class GlobalMemory:
    """The device's global-memory allocator and namespace."""

    def __init__(self, engine: Engine, capacity_bytes: int):
        self.engine = engine
        self.capacity_bytes = capacity_bytes
        self._arrays: Dict[str, GlobalArray] = {}

    def alloc(
        self,
        name: str,
        shape: Union[int, Sequence[int]],
        dtype: Any = np.float64,
        fill: Optional[Any] = None,
        reuse: bool = False,
        home_domain: int = 0,
    ) -> GlobalArray:
        """Allocate a named array; raises on duplicates or exhaustion.

        With ``reuse=True`` an existing same-shape, same-dtype allocation
        is zeroed (or refilled) and returned instead of raising — the
        idiom for re-preparable device state like barrier mutexes.
        ``home_domain`` places the allocation in a topology sync domain;
        accesses from other domains pay the crossing latency.
        """
        if name in self._arrays:
            if reuse:
                existing = self._arrays[name]
                want_shape = (
                    tuple(shape) if isinstance(shape, (list, tuple)) else (shape,)
                )
                if (
                    existing.shape == want_shape
                    and existing.dtype == np.dtype(dtype)
                ):
                    existing.data[...] = 0 if fill is None else fill
                    existing.home_domain = home_domain
                    return existing
                # Shape/dtype changed: replace the allocation.
                del self._arrays[name]
            else:
                raise MemoryError_(f"allocation {name!r} already exists")
        data = np.zeros(shape, dtype=dtype)
        if fill is not None:
            data[...] = fill
        if self.used_bytes + data.nbytes > self.capacity_bytes:
            raise MemoryError_(
                f"allocating {name!r} ({data.nbytes} B) exceeds device memory "
                f"({self.used_bytes}/{self.capacity_bytes} B used)"
            )
        array = GlobalArray(self, name, data, home_domain=home_domain)
        self._arrays[name] = array
        return array

    def wrap(self, name: str, data: np.ndarray) -> GlobalArray:
        """Adopt an existing host array as device memory (like cudaMemcpy).

        The array is used *by reference*: host-side mutations remain
        visible, which mirrors mapped/pinned memory closely enough for the
        harness (inputs are staged before the kernel starts).
        """
        if name in self._arrays:
            raise MemoryError_(f"allocation {name!r} already exists")
        if self.used_bytes + data.nbytes > self.capacity_bytes:
            raise MemoryError_(
                f"wrapping {name!r} ({data.nbytes} B) exceeds device memory"
            )
        array = GlobalArray(self, name, data)
        self._arrays[name] = array
        return array

    def free(self, name: str) -> None:
        """Release an allocation (waiters on it would deadlock, as on HW)."""
        if name not in self._arrays:
            raise MemoryError_(f"no allocation named {name!r}")
        del self._arrays[name]

    def get(self, name: str) -> GlobalArray:
        """Look up an allocation by name."""
        try:
            return self._arrays[name]
        except KeyError:
            raise MemoryError_(f"no allocation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[GlobalArray]:
        return iter(self._arrays.values())

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return sum(a.nbytes for a in self._arrays.values())
