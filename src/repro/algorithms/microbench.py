"""The §5.4 micro-benchmark: mean of two floats, weak-scaled.

"a micro-benchmark to compute the mean of two floats for 10 000 times is
used ... each thread will compute one element, the more blocks and
threads are set, the more elements are computed, i.e., computation is
performed in a weak-scale way.  So the computation time should be
approximately constant."

Each round every thread computes ``out[i] = (a[i] + b[i]) / 2`` for its
element; with ``R`` rounds the final output is simply the mean (the
computation is idempotent), so verification checks the mean plus a
round counter that *is* order-sensitive: each round adds the current
round number to an accumulator only if the previous round fully
completed everywhere, making barrier violations observable.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.algorithms.base import RoundAlgorithm, VerificationError, require_int
from repro.algorithms.costs import block_items
from repro.model.calibration import MICRO_ROUND_COMPUTE_NS

__all__ = ["MeanMicrobench"]


class MeanMicrobench(RoundAlgorithm):
    """Weak-scaled mean-of-two-floats kernel (paper §5.4, Fig. 11)."""

    name = "micro"

    def __init__(
        self,
        rounds: int = 1000,
        num_blocks_hint: int = 30,
        threads_per_block: int = 256,
        seed: int = 0,
    ):
        for label, value in (
            ("rounds", rounds),
            ("num_blocks_hint", num_blocks_hint),
            ("threads_per_block", threads_per_block),
        ):
            require_int(label, value, 1)
        self.rounds = rounds
        # The grid is launched at the block size the elements are sized for.
        self.threads_per_block = self.default_threads = threads_per_block
        # Weak scaling: one element per thread across the *largest* grid
        # we might run; per-block slices adjust with the actual grid.
        self.num_elements = num_blocks_hint * threads_per_block
        rng = np.random.default_rng(seed)
        self._a = rng.random(self.num_elements)
        self._b = rng.random(self.num_elements)
        self.out = np.zeros(self.num_elements)
        #: per-round completion stamps; round r is correct only if every
        #: element was stamped r+1 times by the end.
        self._stamps = np.zeros(self.num_elements, dtype=np.int64)

    def num_rounds(self) -> int:
        return self.rounds

    def reset(self) -> None:
        self.out[:] = 0.0
        self._stamps[:] = 0

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        # Weak scaling: every block computes its own elements in parallel,
        # so per-block (and hence per-round) cost is flat.
        return MICRO_ROUND_COMPUTE_NS

    def round_work(
        self, round_idx: int, block_id: int, num_blocks: int
    ) -> Optional[Callable[[], None]]:
        span = block_items(self.num_elements, block_id, num_blocks)
        if len(span) == 0:
            return None
        lo, hi = span.start, span.stop

        def work() -> None:
            self.out[lo:hi] = (self._a[lo:hi] + self._b[lo:hi]) / 2.0
            self._stamps[lo:hi] += 1

        return work

    def skip_rounds(self, count: int) -> None:
        """Apply ``count`` more rounds: ``out`` is idempotent, stamps add up."""
        self._stamps += count

    def verify(self) -> None:
        expected = (self._a + self._b) / 2.0
        if not np.allclose(self.out, expected):
            bad = int(np.argmax(~np.isclose(self.out, expected)))
            raise VerificationError(
                f"micro: element {bad} is {self.out[bad]!r}, "
                f"expected {expected[bad]!r}"
            )
        if not np.all(self._stamps == self.rounds):
            raise VerificationError(
                f"micro: uneven round stamps "
                f"(min {self._stamps.min()}, max {self._stamps.max()}, "
                f"expected {self.rounds} everywhere)"
            )
