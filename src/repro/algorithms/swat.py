"""Smith-Waterman wavefront matrix filling with affine gaps (§6.2).

"the alignment matrix M is filled in a wavefront pattern ... elements in
the same anti-diagonal are independent of each other and can be
calculated in parallel; while barriers are needed across the computation
of different anti-diagonals."

We fill the three dynamic-programming matrices of the affine-gap
formulation (H: best score, E: gap-in-query, F: gap-in-subject):

.. code-block:: text

    E[i,j] = max(H[i,j-1] - o, E[i,j-1] - e)
    F[i,j] = max(H[i-1,j] - o, F[i-1,j] - e)
    H[i,j] = max(0, H[i-1,j-1] + s(a_i, b_j), E[i,j], F[i,j])

Anti-diagonal ``d = i + j`` only reads diagonals ``d-1`` and ``d-2``, so
one barrier per diagonal suffices; blocks take contiguous runs of the
diagonal's cells.  Per the paper, only the matrix-filling phase is
parallelized/timed (trace-back is sequential and >99 % of time is
filling); :meth:`verify` checks the full H matrix (and thus the optimal
local-alignment score) against an independent reference.

Per-round tables: the first time a diagonal runs, :class:`SmithWaterman`
computes its interior row range and the match/mismatch score of every
cell on it, and keeps them; a block's work is its
:func:`~repro.algorithms.costs.block_items` slice of the diagonal.  In
the row-major ``(n+1)×(m+1)`` matrices, cell ``(i, d−i)`` sits at flat
offset ``i·m + d``, so a run of cells and their three neighbours
(``(i, j−1)``, ``(i−1, j)``, ``(i−1, j−1)`` at offsets ``−1``, ``−m−1``
and ``−m−2``) are all stride-``m`` views of the flattened matrices: no
index arrays at all.  Nothing is built in ``__init__``.  Unlike FFT's
and bitonic sort's, these tables stay per instance, because the scores
depend on the sequences and not only on the size.

Batched round work: a block's work does not run numpy itself.  It
records its ``(round, lo, hi)`` slice in a pending batch, and the batch
applies as one strided H/E/F update per contiguous run of its slices
(one update for the whole diagonal once every block has arrived).  The
batch applies

* as soon as every non-empty slice of its round has arrived, counted
  per round (a round whose slices were split across batches by a racy
  interleaving still completes);
* before a slice of a *different* round is recorded;
* before anything reads the matrices: the :attr:`H`, :attr:`E` and
  :attr:`F` properties (and so :meth:`verify`, :attr:`best_score` and
  :func:`~repro.algorithms.traceback.traceback`) apply it first.

:meth:`reset` drops it.  This is exact, not an approximation: slices of
one round write disjoint cells of diagonal ``d`` and read only ``d−1``
and ``d−2``, so they commute, and a batch never spans two rounds.  The
work of different rounds therefore applies in the order the simulation
ran it, and a racy ``null`` or broken-barrier run reads exactly the
stale cells it would read with every slice applied at once.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import RoundAlgorithm, VerificationError, require_int
from repro.algorithms.costs import SWAT_CELL_NS, block_cost, block_items

__all__ = ["SmithWaterman", "random_sequence", "swat_reference"]

_ALPHABET = np.frombuffer(b"ACGT", dtype=np.uint8)


def random_sequence(length: int, seed: int) -> np.ndarray:
    """A random DNA sequence as a uint8 array."""
    require_int("sequence length", length, 1)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return _ALPHABET[rng.integers(0, 4, size=length)]


def swat_reference(
    query: np.ndarray,
    subject: np.ndarray,
    match: int = 2,
    mismatch: int = -1,
    gap_open: int = 3,
    gap_extend: int = 1,
) -> Tuple[np.ndarray, int]:
    """Independent row-by-row affine-gap fill; returns (H, best score).

    Row-ordered rather than wavefront-ordered, so it shares no traversal
    logic with the class under test.  The scalar fill is slow, so it is
    memoized per process on the sequences' bytes and the scoring: every
    instance aligning the same inputs (one per sweep cell) shares one
    fill.  The returned ``H`` is read-only.
    """
    query, subject = np.asarray(query), np.asarray(subject)
    return _reference(
        query.dtype.str, query.tobytes(), subject.dtype.str, subject.tobytes(),
        match, mismatch, gap_open, gap_extend,
    )


@functools.lru_cache(maxsize=8)
def _reference(
    query_dtype: str,
    query_bytes: bytes,
    subject_dtype: str,
    subject_bytes: bytes,
    match: int,
    mismatch: int,
    gap_open: int,
    gap_extend: int,
) -> Tuple[np.ndarray, int]:
    """:func:`swat_reference`'s fill, keyed on hashable inputs."""
    query = np.frombuffer(query_bytes, dtype=query_dtype)
    subject = np.frombuffer(subject_bytes, dtype=subject_dtype)
    n, m = len(query), len(subject)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    E = np.zeros((n + 1, m + 1), dtype=np.int64)
    F = np.zeros((n + 1, m + 1), dtype=np.int64)
    neg = np.iinfo(np.int64).min // 4
    E[:, 0] = neg
    F[0, :] = neg
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = match if query[i - 1] == subject[j - 1] else mismatch
            E[i, j] = max(H[i, j - 1] - gap_open, E[i, j - 1] - gap_extend)
            F[i, j] = max(H[i - 1, j] - gap_open, F[i - 1, j] - gap_extend)
            H[i, j] = max(0, H[i - 1, j - 1] + s, E[i, j], F[i, j])
    H.setflags(write=False)
    return H, int(H.max())


class SmithWaterman(RoundAlgorithm):
    """Wavefront affine-gap local-alignment matrix fill."""

    name = "swat"
    default_threads = 256  # paper §7.2

    def __init__(
        self,
        query_len: int = 1024,
        subject_len: int = 1024,
        match: int = 2,
        mismatch: int = -1,
        gap_open: int = 3,
        gap_extend: int = 1,
        seed: int = 0,
    ):
        require_int("match score", match)
        require_int("mismatch score", mismatch)
        require_int("gap-open penalty", gap_open, 0)
        require_int("gap-extend penalty", gap_extend, 0)
        self.query = random_sequence(query_len, seed)
        self.subject = random_sequence(subject_len, seed + 1)
        self.match = match
        self.mismatch = mismatch
        self.gap_open = gap_open
        self.gap_extend = gap_extend
        n, m = query_len, subject_len
        self._H = np.zeros((n + 1, m + 1), dtype=np.int64)
        self._E = np.zeros((n + 1, m + 1), dtype=np.int64)
        self._F = np.zeros((n + 1, m + 1), dtype=np.int64)
        # Flat views of the three matrices (they are only ever updated
        # in place), for the stride-m diagonal slices.
        self._flat = (self._H.reshape(-1), self._E.reshape(-1), self._F.reshape(-1))
        #: round -> (ilo, ihi, scores) of its anti-diagonal.
        self._tables: Dict[int, Tuple[int, int, np.ndarray]] = {}
        #: The pending batch: the round of its slices and their
        #: ``[lo, hi)`` item ranges on that round's diagonal.
        self._pending_round = -1
        self._pending: List[Tuple[int, int]] = []
        #: round -> slices of it recorded so far, for rounds not yet
        #: complete.
        self._arrived: Dict[int, int] = {}
        self._neg = np.iinfo(np.int64).min // 4
        self.reset()

    @property
    def n(self) -> int:
        return len(self.query)

    @property
    def m(self) -> int:
        return len(self.subject)

    @property
    def H(self) -> np.ndarray:
        """Best-score matrix, ``(n+1)×(m+1)``, with every recorded slice applied."""
        self._apply_pending()
        return self._H

    @property
    def E(self) -> np.ndarray:
        """Gap-in-query matrix, with every recorded slice applied."""
        self._apply_pending()
        return self._E

    @property
    def F(self) -> np.ndarray:
        """Gap-in-subject matrix, with every recorded slice applied."""
        self._apply_pending()
        return self._F

    def num_rounds(self) -> int:
        # Diagonals d = 2 .. n+m hold the interior cells.
        return self.n + self.m - 1

    def reset(self) -> None:
        self._pending.clear()
        self._arrived.clear()
        self._H[...] = 0
        self._E[...] = 0
        self._F[...] = 0
        self._E[:, 0] = self._neg
        self._F[0, :] = self._neg

    def _diag_rows(self, round_idx: int) -> Tuple[int, int]:
        """Interior row range [ilo, ihi) of anti-diagonal ``round_idx + 2``."""
        d = round_idx + 2
        ilo = max(1, d - self.m)
        ihi = min(self.n, d - 1) + 1
        return ilo, ihi

    def _diagonal(self, round_idx: int) -> Tuple[int, int, np.ndarray]:
        """Anti-diagonal ``round_idx + 2``: interior rows ``[ilo, ihi)``
        and the match/mismatch score of each of its cells."""
        try:
            return self._tables[round_idx]
        except KeyError:
            pass
        d = round_idx + 2
        ilo, ihi = self._diag_rows(round_idx)
        # Cell (i, d-i) compares query[i-1] with subject[d-i-1].
        query = self.query[ilo - 1 : ihi - 1]
        subject = self.subject[d - ihi : d - ilo][::-1]
        scores = np.where(query == subject, self.match, self.mismatch)
        table = self._tables[round_idx] = (ilo, ihi, scores)
        return table

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        ilo, ihi, _ = self._diagonal(round_idx)
        items = len(block_items(ihi - ilo, block_id, num_blocks))
        return block_cost(items, SWAT_CELL_NS)

    def round_work(
        self, round_idx: int, block_id: int, num_blocks: int
    ) -> Optional[Callable[[], None]]:
        ilo, ihi, _ = self._diagonal(round_idx)
        cells = ihi - ilo
        span = block_items(cells, block_id, num_blocks)
        if not span:
            return None
        # Blocks holding a non-empty slice of this diagonal.
        per = -(-cells // num_blocks)
        slices = -(-cells // per)
        return functools.partial(
            self._record, round_idx, span.start, span.stop, slices
        )

    def _record(self, round_idx: int, lo: int, hi: int, slices: int) -> None:
        """A block's work: add its slice ``[lo, hi)`` of the round's
        diagonal to the pending batch.

        The batch holds one round only, so a slice of another round
        applies it first; the batch also applies once all ``slices``
        non-empty slices of its round have arrived, counted per round
        across batches.
        """
        if round_idx != self._pending_round:
            self._apply_pending()
            self._pending_round = round_idx
        self._pending.append((lo, hi))
        arrived = self._arrived.pop(round_idx, 0) + 1
        if arrived == slices:
            self._apply_pending()
        else:
            self._arrived[round_idx] = arrived

    def _apply_pending(self) -> None:
        """Apply the pending batch: one strided H/E/F update over each
        contiguous run of its slices."""
        pending = self._pending
        if not pending:
            return
        pending.sort()
        runs = [list(pending[0])]
        for lo, hi in pending[1:]:
            if lo == runs[-1][1]:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        pending.clear()
        round_idx = self._pending_round
        ilo, _, scores = self._tables[round_idx]
        H, E, F = self._flat
        m = self.m
        for lo, hi in runs:
            # Flat offsets of the run's first cell (i = ilo + lo) and of
            # its left, upper and diagonal neighbours; every later cell
            # is m further on.
            first = (ilo + lo) * m + round_idx + 2
            stop = first + (hi - lo) * m
            cells = slice(first, stop, m)
            left = slice(first - 1, stop - 1, m)
            up = slice(first - m - 1, stop - m - 1, m)
            diag = slice(first - m - 2, stop - m - 2, m)
            e = np.maximum(H[left] - self.gap_open, E[left] - self.gap_extend)
            f = np.maximum(H[up] - self.gap_open, F[up] - self.gap_extend)
            h = np.maximum(H[diag] + scores[lo:hi], 0)
            E[cells] = e
            F[cells] = f
            H[cells] = np.maximum(h, np.maximum(e, f))

    @property
    def best_score(self) -> int:
        """The optimal local-alignment score found so far."""
        return int(self.H.max())

    def verify(self) -> None:
        expected_H, expected_best = swat_reference(
            self.query,
            self.subject,
            self.match,
            self.mismatch,
            self.gap_open,
            self.gap_extend,
        )
        H = self.H
        if not np.array_equal(H, expected_H):
            bad = np.argwhere(H != expected_H)[0]
            raise VerificationError(
                f"swat: H[{bad[0]},{bad[1]}] = {H[bad[0], bad[1]]}, "
                f"expected {expected_H[bad[0], bad[1]]} "
                f"(best score {self.best_score} vs {expected_best})"
            )
