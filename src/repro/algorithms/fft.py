"""Iterative radix-2 Cooley–Tukey FFT with one barrier per stage (§6.1).

"For an N-point input sequence, FFT is computed in log(N) iterations.
Within each iteration, computation of different points is independent
... on the other hand, computation of an iteration cannot start until
that of its previous iteration completes, which makes a barrier
necessary."

Layout: decimation-in-time with an up-front bit-reversal permutation
(performed during kernel staging, like the cudaMemcpy of inputs), then
``log2(n)`` butterfly stages.  Stage ``s`` (1-based) works on spans of
``m = 2**s``: butterfly ``b`` pairs indices ``i1 = (b // h)·m + (b % h)``
and ``i2 = i1 + h`` with ``h = m/2``, combining them through the twiddle
``exp(-2πi·(b % h)/m)``.  Distinct butterflies touch disjoint pairs, so a
round partitions the ``n/2`` butterflies across blocks; every stage reads
values the *previous* stage wrote — other blocks' writes included —
which is what makes the inter-block barrier load-bearing.

Per-size shared tables: the first time a stage runs, :class:`FFT`
builds that stage's ``i1``/``i2`` index arrays and twiddles for all
``n/2`` butterflies; a block's work is its
:func:`~repro.algorithms.costs.block_items` slice of the three arrays.
The tables depend only on ``(n, inverse)``, so every instance of that
size and direction fills and reads one shared dict, held by a
``maxsize=1`` cache: a sweep that builds one FFT per cell builds each
stage's tables once.  The shared arrays are read-only.  Nothing is
built in ``__init__``; once its last instance is gone, the module keeps
the tables of at most one ``(n, inverse)``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.base import RoundAlgorithm, VerificationError, require_int
from repro.algorithms.costs import FFT_BUTTERFLY_NS, block_cost, block_items
from repro.errors import ConfigError

__all__ = ["FFT", "bit_reverse_permutation"]


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation that bit-reverses ``log2(n)``-bit positions."""
    if n < 1 or n & (n - 1):
        raise ConfigError(f"FFT size must be a power of two, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


#: one stage's ``(i1, i2, twiddles)`` over every butterfly.
_StageTable = Tuple[np.ndarray, np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=1)
def _stage_tables(n: int, inverse: bool) -> Dict[int, _StageTable]:
    """The stage-index -> table dict every ``(n, inverse)`` FFT shares.

    Returned empty; :meth:`FFT._table` fills it one stage at a time.
    """
    return {}


class FFT(RoundAlgorithm):
    """Radix-2 DIT FFT over a complex input vector."""

    name = "fft"
    default_threads = 448  # paper §7.2

    def __init__(self, n: int = 2**15, seed: int = 0, inverse: bool = False):
        require_int("FFT size", n, 2)
        require_int("seed", seed, 0)
        if n & (n - 1):
            raise ConfigError(f"FFT size must be a power of two >= 2, got {n}")
        if not isinstance(inverse, bool):
            raise ConfigError(f"FFT inverse must be a bool, got {inverse!r}")
        self.n = n
        self.stages = n.bit_length() - 1
        #: compute the inverse DFT (unnormalized; verify() accounts for
        #: the 1/N factor, matching the paper's §6.1 definition).
        self.inverse = inverse
        rng = np.random.default_rng(seed)
        self.input = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(
            np.complex128
        )
        self._rev = bit_reverse_permutation(n)
        self.buf = np.empty(n, dtype=np.complex128)
        self._butterflies = n // 2
        #: stage index -> (i1, i2, twiddles), shared by every FFT of
        #: this size and direction.
        self._tables = _stage_tables(n, inverse)
        self.reset()

    def num_rounds(self) -> int:
        return self.stages

    def reset(self) -> None:
        # Bit-reversal happens at staging time (host side), like the
        # input copy; the barrier-separated rounds are the stages.
        self.buf[:] = self.input[self._rev]

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        items = len(block_items(self._butterflies, block_id, num_blocks))
        return block_cost(items, FFT_BUTTERFLY_NS)

    def _table(self, round_idx: int) -> _StageTable:
        """Stage ``round_idx + 1``'s ``(i1, i2, twiddles)`` for every butterfly."""
        try:
            return self._tables[round_idx]
        except KeyError:
            pass
        m = 2 << round_idx
        h = m >> 1
        sign = 2j if self.inverse else -2j
        b = np.arange(self._butterflies, dtype=np.int64)
        j = b % h
        i1 = (b // h) * m + j
        table = (i1, i1 + h, np.exp(sign * np.pi * j / m))
        for array in table:
            array.setflags(write=False)
        self._tables[round_idx] = table
        return table

    def round_work(
        self, round_idx: int, block_id: int, num_blocks: int
    ) -> Optional[Callable[[], None]]:
        span = block_items(self._butterflies, block_id, num_blocks)
        if not span:
            return None
        lo, hi = span.start, span.stop

        def work() -> None:
            i1, i2, w = self._table(round_idx)
            i1, i2 = i1[lo:hi], i2[lo:hi]
            buf = self.buf
            t = w[lo:hi] * buf[i2]
            u = buf[i1]
            buf[i1] = u + t
            buf[i2] = u - t

        return work

    def verify(self) -> None:
        if self.inverse:
            expected = np.fft.ifft(self.input) * self.n
        else:
            expected = np.fft.fft(self.input)
        if not np.allclose(self.buf, expected, rtol=1e-9, atol=1e-6):
            err = float(np.max(np.abs(self.buf - expected)))
            raise VerificationError(
                f"fft: max deviation {err:.3e} from numpy "
                f"({'ifft' if self.inverse else 'fft'}, n={self.n})"
            )
