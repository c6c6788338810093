"""Smith-Waterman's batched round work equals applying each slice at once."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SmithWaterman, VerificationError
from repro.algorithms.costs import block_items
from repro.algorithms.traceback import traceback
from repro.errors import BarrierTimeoutError
from repro.faults import FaultPlan, FaultSpec
from repro.harness.runner import run
from repro.sanitize import ScheduleFuzzer


def _apply_now(algo, mats, round_idx, block_id, num_blocks):
    """One block's slice, cell by cell, straight into ``mats`` (H, E, F)."""
    H, E, F = mats
    d = round_idx + 2
    ilo = max(1, d - algo.m)
    ihi = min(algo.n, d - 1) + 1
    for k in block_items(ihi - ilo, block_id, num_blocks):
        i = ilo + k
        j = d - i
        s = algo.match if algo.query[i - 1] == algo.subject[j - 1] else algo.mismatch
        E[i, j] = max(H[i, j - 1] - algo.gap_open, E[i, j - 1] - algo.gap_extend)
        F[i, j] = max(H[i - 1, j] - algo.gap_open, F[i - 1, j] - algo.gap_extend)
        H[i, j] = max(0, H[i - 1, j - 1] + s, E[i, j], F[i, j])


def _fresh(algo):
    """Zeroed H, E, F with the boundary rows an empty fill starts from."""
    shape = (algo.n + 1, algo.m + 1)
    H, E, F = (np.zeros(shape, dtype=np.int64) for _ in range(3))
    neg = np.iinfo(np.int64).min // 4
    E[:, 0] = neg
    F[0, :] = neg
    return H, E, F


def _matrices(algo):
    return algo.H, algo.E, algo.F


@st.composite
def _arrivals(draw):
    """A shape, a grid and an order of ``(round, block)`` arrivals.

    Each slice gets a lag of up to ``max_lag`` rounds, so blocks run
    ahead of and behind each other as they do without a barrier, and a
    drawn permutation breaks ties; a prefix may stop before every slice
    arrived.
    """
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    num_blocks = draw(st.integers(1, 12))
    rounds = n + m - 1
    pairs = [(r, b) for r in range(rounds) for b in range(num_blocks)]
    max_lag = draw(st.integers(0, rounds))
    lags = draw(st.lists(st.integers(0, max_lag), min_size=len(pairs),
                         max_size=len(pairs)))
    ties = draw(st.permutations(range(len(pairs))))
    order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0] + lags[k], ties[k]))
    stop = draw(st.integers(0, len(pairs)))
    reads = draw(st.sets(st.integers(0, len(pairs))))
    seed = draw(st.integers(0, 2**16))
    return n, m, num_blocks, [pairs[k] for k in order[:stop]], reads, seed


class TestBatchEqualsImmediate:
    @settings(max_examples=60, deadline=None)
    @given(_arrivals())
    def test_any_shape_grid_and_arrival_order(self, case):
        n, m, num_blocks, order, reads, seed = case
        algo = SmithWaterman(n, m, seed=seed)
        eager = _fresh(algo)
        for step, (r, b) in enumerate(order):
            if step in reads:  # a read mid-run applies the batch early
                for got, want in zip(_matrices(algo), eager):
                    assert np.array_equal(got, want)
            work = algo.round_work(r, b, num_blocks)
            if work is not None:
                work()
            _apply_now(algo, eager, r, b, num_blocks)
        for got, want in zip(_matrices(algo), eager):
            assert np.array_equal(got, want)


def _identical(n):
    """An n×n fill of a sequence against itself: H[k, k] = 2k."""
    algo = SmithWaterman(n, n, seed=1)
    algo.subject = algo.query.copy()
    algo.reset()
    return algo


def _partial_fill():
    """Two 8×8 self-alignments, filled through round 5 and then by block
    0 of 2 in round 6, whose slice holds cell (4, 4) and the best score
    so far (8).  The first keeps that slice pending; the twin applied
    each slice at once."""
    algo, twin = _identical(8), _identical(8)
    for target in (algo, twin):
        for r, b in [(r, b) for r in range(6) for b in range(2)] + [(6, 0)]:
            work = target.round_work(r, b, 2)
            if work is not None:
                work()
            if target is twin:
                twin._apply_pending()
    assert algo._pending, "the precondition: a batch is pending"
    assert not twin._pending
    return algo, twin


class TestPending:
    @pytest.mark.parametrize("strategy", ["null", "cpu-implicit", "gpu-lockfree"])
    @pytest.mark.parametrize("num_blocks", [1, 7, 30])
    def test_completed_run_leaves_nothing_pending(self, strategy, num_blocks):
        algo = SmithWaterman(24, 17, seed=2)
        run(algo, strategy, num_blocks, verify=False, jitter_pct=30.0)
        assert algo._pending == []
        assert algo._arrived == {}

    def test_completed_fuzzed_run_leaves_nothing_pending(self):
        algo = SmithWaterman(24, 17, seed=2)
        run(algo, "null", 7, fuzzer=ScheduleFuzzer(5))
        assert algo._pending == []
        assert algo._arrived == {}

    def test_reset_drops_a_pending_batch(self):
        algo, _twin = _partial_fill()
        algo.reset()
        assert algo._pending == [] and algo._arrived == {}
        assert (algo.H == 0).all() and (algo.E[1:, 1:] == 0).all()
        run(algo, "gpu-lockfree", 3)  # verifies

    def test_best_score_sees_pending_slices(self):
        algo, twin = _partial_fill()
        assert algo.best_score == twin.best_score == 8

    def test_verify_sees_pending_slices(self):
        algo, twin = _partial_fill()
        with pytest.raises(VerificationError) as want:
            twin.verify()
        with pytest.raises(VerificationError) as got:
            algo.verify()
        assert str(got.value) == str(want.value)

    def test_traceback_sees_pending_slices(self):
        algo, twin = _partial_fill()
        alignment = traceback(algo)
        assert alignment == traceback(twin)
        assert alignment.score == 8 and alignment.query_span == (0, 4)

    def test_hang_fault_error_text_and_matrices(self):
        algo = SmithWaterman(20, 12, seed=5)
        plan = FaultPlan([FaultSpec("hang", block=2, round=9)])
        with pytest.raises(BarrierTimeoutError) as info:
            run(algo, "gpu-lockfree", 5, faults=plan, jitter_pct=30.0, jitter_seed=1)
        assert re.sub(r"#\d+", "#N", str(info.value)) == HANG_TEXT
        digests = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                   for a in _matrices(algo)]
        assert digests == HANG_DIGESTS


#: ``BarrierTimeoutError`` text of the hang case above, as the unbatched
#: fill raised it.
HANG_TEXT = (
    "barrier stall: gpu-lockfree round stalled at t=32906 ns with 7 process(es) "
    "parked [host: cudaThreadSynchronize (process 'kernel:swat:gpu-lockfree'); "
    "kernel:swat:gpu-lockfree: drain swat:gpu-lockfree (process "
    "'swat:gpu-lockfree/b0'); swat:gpu-lockfree/b0: Arrayout[0] (round 9) "
    "(signal 'mem:Arrayout#N'); swat:gpu-lockfree/b1: Arrayin all set (round 9) "
    "(signal 'mem:Arrayin#N'); swat:gpu-lockfree/b2: injected hang: block 2 "
    "never reaches the gpu-lockfree barrier of round 9 (signal "
    "'fault-hang:swat:gpu-lockfree/b2'); swat:gpu-lockfree/b3: Arrayout[3] "
    "(round 9) (signal 'mem:Arrayout#N'); swat:gpu-lockfree/b4: Arrayout[4] "
    "(round 9) (signal 'mem:Arrayout#N')] (injected: hang(block 2, round 9))"
)
#: SHA-256 of H, E and F after that stall, as the unbatched fill left them.
HANG_DIGESTS = [
    "3cb440e7a44f795ab070e0fea9dfdd49a600192d08338582ae7789602ae0d1fc",
    "d6c0ea67a02876d3bc59d553de61687793e888c72097c8fb9af30348ca902653",
    "b9b45b1a8c636d519192e0435ebad8215478ed671f89fa2d2b4a4b2f31ccb3d3",
]
