"""The no-op barrier used for compute-only timing runs (paper §7.3).

The paper measures synchronization time as *total kernel time minus the
time of the same kernel with* ``__gpu_sync()`` *removed*.  ``NullSync``
is that removed-barrier configuration: a single-kernel device run whose
barrier does nothing.  Results computed under it are generally **wrong**
(blocks race freely); it exists purely to measure computation time, and
the harness never verifies its output.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx

__all__ = ["NullSync"]


class NullSync(SyncStrategy):
    """Barrier removed — compute-only timing (never use for results)."""

    name = "null"
    mode = "device"

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        return
        yield  # pragma: no cover - makes this a generator function


register_strategy("null", NullSync)
