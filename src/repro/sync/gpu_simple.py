"""GPU simple synchronization — one global mutex (paper §5.1, Fig. 6).

Each block's leading thread does ``atomicAdd(&g_mutex, 1)`` and spins
until the mutex reaches ``goalVal``; a closing ``__syncthreads()``
releases the block.  ``goalVal`` *accumulates* (``(round+1) · N``) rather
than resetting the mutex each round — the paper's §5.1 optimization.  The
optional ``reset_mutex=True`` variant implements the rejected
reset-per-round design for the ablation bench: it needs an extra store
and an extra spin phase per round, which is exactly the overhead the
paper avoided.

Cost: all N atomics hit one cell and serialize through its FIFO atomic
unit, so the barrier takes ``N·t_a + t_c`` (Eq. 6) — measured, not
scripted.

A note on the spin predicate: the paper's CUDA code tests
``g_mutex != goalVal``.  With an accumulating goal the mutex is
monotonic, so we test ``>=``; this is semantically identical when the
equality window is observed (the simulator evaluates spin predicates at
every store, mirroring the sub-microsecond poll granularity that makes
the ``!=`` test safe on hardware) and robust if it is not.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.sync.base import SyncStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalArray

__all__ = ["GpuSimpleSync"]


class GpuSimpleSync(SyncStrategy):
    """The single-mutex device barrier."""

    name = "gpu-simple"
    mode = "device"
    _mutex: "GlobalArray"

    def __init__(self, reset_mutex: bool = False) -> None:
        super().__init__()
        #: ablation flag: reset ``g_mutex`` each round instead of
        #: accumulating ``goalVal`` (paper §5.1 calls this less efficient).
        self.reset_mutex = reset_mutex
        if reset_mutex:
            self.name = "gpu-simple-reset"

    def prepare(self, device: "Device", num_blocks: int) -> None:
        super().prepare(device, num_blocks)
        self._mutex = device.memory.alloc(
            f"g_mutex#{self._uid}", 1, dtype=np.int64, reuse=True
        )

    def protocol(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        mutex = self._mutex
        n = ctx.num_blocks
        if self.reset_mutex:
            yield from self._barrier_with_reset(ctx, mutex, n)
        else:
            goal = (round_idx + 1) * n
            yield from ctx.atomic_add(mutex, 0, 1)
            # The accumulating goal makes the mutex monotonic: the wait
            # ends once cell 0 reaches `goal`, whatever stores came first.
            yield from ctx.spin_until(
                mutex,
                lambda: mutex.data[0] >= goal,
                f"g_mutex>={goal}",
            )

    def _barrier_with_reset(
        self, ctx: "BlockCtx", mutex: "GlobalArray", n: int
    ) -> Generator[Any, Any, Any]:
        """Ablation: constant goal, mutex reset by block 0 every round.

        All blocks must additionally observe the reset before leaving,
        otherwise a fast block's next-round ``atomicAdd`` could race the
        reset and lose an increment — the conditional-branching overhead
        the paper's accumulating design avoids.
        """
        yield from ctx.atomic_add(mutex, 0, 1)
        yield from ctx.spin_until(
            mutex, lambda: mutex.data[0] >= n or mutex.data[0] == 0,
            f"g_mutex=={n} (reset variant)",
        )
        if ctx.block_id == 0:
            # This variant deliberately measures the reset design the
            # paper rejects (§5.1); SC005's warning is the point.
            yield from ctx.gwrite(mutex, 0, 0)  # repro: noqa SC005
        yield from ctx.spin_until(
            mutex, lambda: mutex.data[0] == 0, "g_mutex reset observed"
        )


register_strategy("gpu-simple", GpuSimpleSync)
register_strategy("gpu-simple-reset", lambda: GpuSimpleSync(reset_mutex=True))
