"""Per-algorithm computation-cost calibration.

Per-work-item costs (ns) are chosen so that, at the paper's best
configuration (30 blocks, CPU implicit synchronization, default problem
sizes), the share of kernel time spent on inter-block communication
matches **Table 1**: FFT 19.6 %, SWat 49.7 %, bitonic sort 59.6 %.

Derivations (implicit barrier = 6 000 ns/round, see
:mod:`repro.model.calibration`):

* **FFT**, n = 2¹⁵, 15 rounds: sync = 15·6 000 = 90 000 ns; a 19.6 % sync
  share needs compute ≈ 369 000 ns ⇒ 24 600 ns/round; 16 384 butterflies
  over 30 blocks is 547/block ⇒ ≈ **45 ns per butterfly** (~10 flops + a
  32-byte working set — consistent with real hardware).
* **SWat**, 1 024×1 024 matrix, 2 047 diagonals: a 49.7 % share needs
  ≈ 6 076 ns/round against ~18 cells/block on the average diagonal ⇒
  **330 ns per cell**.  The paper's sequences are much longer; shrinking
  the matrix while scaling the per-cell cost preserves every ratio the
  paper reports while keeping simulations tractable (DESIGN.md §2).
* **Bitonic sort**, n = 2¹⁴, 105 steps: a 59.6 % share needs
  ≈ 4 070 ns/round against 274 pairs/block ⇒ **14 ns per
  compare-exchange**.
* Every round also pays a fixed **200 ns** stage overhead (loop and
  pipeline bookkeeping).
* The micro-benchmark is weak-scaled at a flat
  :data:`~repro.model.calibration.MICRO_ROUND_COMPUTE_NS` (500 ns).
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "STAGE_OVERHEAD_NS",
    "FFT_BUTTERFLY_NS",
    "SWAT_CELL_NS",
    "BITONIC_PAIR_NS",
    "block_items",
    "block_cost",
]

#: Fixed per-round, per-block bookkeeping cost.
STAGE_OVERHEAD_NS = 200
#: One radix-2 butterfly (complex twiddle multiply + add/sub).
FFT_BUTTERFLY_NS = 45
#: One Smith-Waterman cell (affine-gap H/E/F update).
SWAT_CELL_NS = 330
#: One bitonic compare-exchange.
BITONIC_PAIR_NS = 14


@functools.lru_cache(maxsize=1 << 16)
def block_items(total_items: int, block_id: int, num_blocks: int) -> range:
    """Contiguous partition of ``total_items`` work items across blocks.

    Blocks get ``ceil(total/num_blocks)`` items except possibly the last;
    blocks past the end receive an empty range.  Memoized: a kernel's
    :meth:`~repro.algorithms.base.RoundAlgorithm.round_cost` and
    :meth:`~repro.algorithms.base.RoundAlgorithm.round_work` both ask
    for the same block's slice, every round of every run.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    per = math.ceil(total_items / num_blocks) if total_items else 0
    lo = min(block_id * per, total_items)
    hi = min(lo + per, total_items)
    return range(lo, hi)


def block_cost(num_items: int, per_item_ns: float) -> float:
    """Per-round compute cost for one block: overhead + items × unit cost.

    Empty slices still pay the stage overhead — the block executes the
    round's loop iteration even when its partition is empty.
    """
    return STAGE_OVERHEAD_NS + num_items * per_item_ns
