"""Bitonic sort with one barrier per compare-exchange step (§6.3).

"In each iteration, the numbers to be sorted are divided into pairs and
a compare-and-swap operation is applied, which can be executed in
parallel for different pairs ... the data dependency across adjacent
iterations makes it necessary for a barrier to be used."

Batcher's network over ``n = 2**k`` keys runs ``k(k+1)/2`` steps,
enumerated by ``(size, stride)`` with ``size = 2,4,..,n`` and
``stride = size/2, size/4, .., 1``.  In a step, index ``i`` is paired
with ``i ^ stride``; the lower index owns the pair and orders it
ascending when ``i & size == 0``, descending otherwise.  Pairs are
disjoint, so blocks take contiguous index ranges; each step reads
positions the previous step (possibly another block) wrote.

The CUDA SDK version the paper contrasts against (§3) is limited to one
512-thread block — at most 512 keys — precisely because it only has
``__syncthreads()``; a grid-wide barrier lifts that limit, which is the
motivating example for this whole line of work.

Per-size shared tables: the first time a step runs,
:class:`BitonicSort` builds that step's ``(small, large)`` pair of index
arrays over all ``n/2`` pairs.  ``small`` holds the index that receives
the pair's smaller key and ``large`` the one that receives the larger:
``(i, partner)`` for an ascending pair, ``(partner, i)`` for a
descending one.  A block's compare-exchange is then two gathers,
``np.minimum``/``np.maximum`` and two scatters over its
:func:`~repro.algorithms.costs.block_items` slice of the two arrays.
The tables depend only on ``n``, so every instance of that size fills
and reads one shared dict, held by a ``maxsize=1`` cache; the shared
arrays are read-only.  Nothing is built in ``__init__``; once its last
instance is gone, the module keeps the tables of at most one ``n``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import RoundAlgorithm, VerificationError, require_int
from repro.algorithms.costs import BITONIC_PAIR_NS, block_cost, block_items
from repro.errors import ConfigError

__all__ = ["BitonicSort", "bitonic_steps"]


def bitonic_steps(n: int) -> List[Tuple[int, int]]:
    """The network's ``(size, stride)`` step sequence for ``n`` keys."""
    require_int("bitonic sort size", n, 2)
    if n & (n - 1):
        raise ConfigError(f"bitonic sort size must be a power of two >= 2, got {n}")
    steps: List[Tuple[int, int]] = []
    size = 2
    while size <= n:
        stride = size >> 1
        while stride >= 1:
            steps.append((size, stride))
            stride >>= 1
        size <<= 1
    return steps


#: one step's ``(small, large)`` index arrays over every pair.
_StepTable = Tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=1)
def _step_tables(n: int) -> Dict[int, _StepTable]:
    """The step-index -> table dict every size-``n`` sort shares.

    Returned empty; :meth:`BitonicSort._table` fills it one step at a
    time.
    """
    return {}


class BitonicSort(RoundAlgorithm):
    """Batcher's bitonic sorting network over float keys."""

    name = "bitonic"
    default_threads = 512  # paper §7.2

    def __init__(self, n: int = 2**14, seed: int = 0):
        self.n = n
        self._steps = bitonic_steps(n)
        require_int("seed", seed, 0)
        rng = np.random.default_rng(seed)
        self.input = rng.random(n)
        self.keys = np.empty(n)
        self._pairs = n // 2
        #: step index -> (small, large), shared by every sort of size n.
        self._tables = _step_tables(n)
        self.reset()

    def num_rounds(self) -> int:
        return len(self._steps)

    def reset(self) -> None:
        self.keys[:] = self.input

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        items = len(block_items(self._pairs, block_id, num_blocks))
        return block_cost(items, BITONIC_PAIR_NS)

    def _table(self, round_idx: int) -> _StepTable:
        """Step ``round_idx``'s ``(small, large)`` for every pair."""
        try:
            return self._tables[round_idx]
        except KeyError:
            pass
        size, stride = self._steps[round_idx]
        # Pair p owns lower index i = (p // stride)·2·stride + (p % stride).
        p = np.arange(self._pairs, dtype=np.int64)
        i = (p // stride) * (stride << 1) + (p % stride)
        partner = i | stride
        ascending = (i & size) == 0
        table = (np.where(ascending, i, partner), np.where(ascending, partner, i))
        for array in table:
            array.setflags(write=False)
        self._tables[round_idx] = table
        return table

    def round_work(
        self, round_idx: int, block_id: int, num_blocks: int
    ) -> Optional[Callable[[], None]]:
        span = block_items(self._pairs, block_id, num_blocks)
        if not span:
            return None
        lo, hi = span.start, span.stop

        def work() -> None:
            small, large = self._table(round_idx)
            small, large = small[lo:hi], large[lo:hi]
            keys = self.keys
            a, b = keys[small], keys[large]
            keys[small] = np.minimum(a, b)
            keys[large] = np.maximum(a, b)

        return work

    def verify(self) -> None:
        expected = np.sort(self.input)
        if not np.array_equal(self.keys, expected):
            bad = int(np.argmax(self.keys != expected))
            raise VerificationError(
                f"bitonic: position {bad} holds {self.keys[bad]!r}, "
                f"expected {expected[bad]!r} (n={self.n})"
            )
