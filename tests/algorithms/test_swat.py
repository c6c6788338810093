"""Tests for the Smith-Waterman workload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SmithWaterman, VerificationError
from repro.algorithms import swat
from repro.algorithms.swat import random_sequence, swat_reference
from repro.errors import ConfigError

from tests.algorithms.conftest import run_rounds_serially


class TestReference:
    def test_identical_sequences_score_match_times_length(self):
        seq = random_sequence(16, seed=1)
        _H, best = swat_reference(seq, seq, match=2)
        assert best == 2 * 16

    def test_disjoint_alphabets_score_zero(self):
        a = np.frombuffer(b"AAAA", dtype=np.uint8)
        b = np.frombuffer(b"TTTT", dtype=np.uint8)
        _H, best = swat_reference(a, b)
        assert best == 0

    def test_known_small_alignment(self):
        # query ACG vs subject ACG embedded in TACGT: perfect 3-match.
        q = np.frombuffer(b"ACG", dtype=np.uint8)
        s = np.frombuffer(b"TACGT", dtype=np.uint8)
        _H, best = swat_reference(q, s, match=2, mismatch=-1)
        assert best == 6

    def test_gap_penalties_applied(self):
        # ACGT vs ACT: best local alignment "AC" = 4, or with a gap:
        # A C G T vs A C - T = 3*2 - (3+1)... affine open 3 ext 1 →
        # score max(4, 6 - 4) ... still 4? Verify monotonic behaviour:
        q = np.frombuffer(b"ACGT", dtype=np.uint8)
        s = np.frombuffer(b"ACT", dtype=np.uint8)
        _H, strict = swat_reference(q, s, gap_open=10, gap_extend=10)
        _H, lenient = swat_reference(q, s, gap_open=1, gap_extend=1)
        assert lenient >= strict

    def test_scores_nonnegative(self):
        q, s = random_sequence(24, 3), random_sequence(20, 4)
        H, best = swat_reference(q, s)
        assert (H >= 0).all()
        assert best >= 0


class TestReferenceMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        swat._reference.cache_clear()

    def test_h_is_read_only(self):
        H, _best = swat_reference(random_sequence(8, 1), random_sequence(9, 2))
        with pytest.raises(ValueError):
            H[1, 1] = 7

    def test_one_fill_per_sequences_and_scoring(self):
        q, s = random_sequence(10, 5), random_sequence(12, 6)
        first = swat_reference(q, s)
        # A copy of the same sequences, as another instance would hold.
        again = swat_reference(q.copy(), s.copy())
        assert again[0] is first[0]
        assert swat._reference.cache_info().misses == 1

    def test_gap_penalties_key_distinct_entries(self):
        q, s = random_sequence(10, 5), random_sequence(12, 6)
        strict, _ = swat_reference(q, s, gap_open=10, gap_extend=10)
        lenient, _ = swat_reference(q, s, gap_open=1, gap_extend=1)
        assert strict is not lenient
        assert swat._reference.cache_info().misses == 2

    def test_instances_share_the_fill(self):
        for _ in range(3):
            algo = SmithWaterman(9, 7, seed=4)
            run_rounds_serially(algo, 3)
            algo.verify()
        assert swat._reference.cache_info().misses == 1

    def test_one_corrupted_cell_still_fails_verification(self):
        algo = SmithWaterman(12, 10, seed=2)
        run_rounds_serially(algo, 3)
        algo.verify()  # fills the memo
        algo.H[5, 4] += 1
        with pytest.raises(VerificationError, match=r"H\[5,4\]"):
            algo.verify()


class TestSmithWaterman:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 5), (5, 16), (1, 9)])
    @pytest.mark.parametrize("num_blocks", [1, 4, 30])
    def test_matches_reference(self, shape, num_blocks):
        algo = SmithWaterman(*shape)
        run_rounds_serially(algo, num_blocks)
        algo.verify()

    def test_rounds_are_antidiagonals(self):
        assert SmithWaterman(10, 20).num_rounds() == 29  # n + m - 1

    def test_diag_rows_cover_matrix_exactly_once(self):
        algo = SmithWaterman(7, 11)
        seen = np.zeros((8, 12), dtype=int)
        for r in range(algo.num_rounds()):
            ilo, ihi = algo._diag_rows(r)
            d = r + 2
            for i in range(ilo, ihi):
                seen[i, d - i] += 1
        assert (seen[1:, 1:] == 1).all()
        assert (seen[0, :] == 0).all() and (seen[:, 0] == 0).all()

    def test_verify_detects_corruption(self):
        algo = SmithWaterman(12, 12)
        run_rounds_serially(algo, 2)
        algo.H[3, 3] += 1
        with pytest.raises(VerificationError, match="swat"):
            algo.verify()

    def test_skipped_diagonal_breaks_result(self):
        algo = SmithWaterman(16, 16)
        algo.reset()
        for r in range(algo.num_rounds()):
            if r == 7:
                continue
            for b in range(3):
                work = algo.round_work(r, b, 3)
                if work is not None:
                    work()
        with pytest.raises(VerificationError):
            algo.verify()

    def test_best_score_property(self):
        algo = SmithWaterman(20, 20)
        run_rounds_serially(algo, 4)
        assert algo.best_score == int(algo.H.max())
        assert algo.best_score >= 0

    def test_round_cost_tracks_diagonal_length(self):
        algo = SmithWaterman(32, 32)
        # The middle diagonal is the longest.
        mid = algo.round_cost(31, 0, 1)
        first = algo.round_cost(0, 0, 1)
        assert mid > first

    def test_reset_clears_matrices(self):
        algo = SmithWaterman(8, 8)
        run_rounds_serially(algo, 2)
        algo.reset()
        assert (algo.H == 0).all()

    def test_rejects_empty_sequences(self):
        with pytest.raises(ConfigError):
            random_sequence(0, seed=0)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 24),
        m=st.integers(1, 24),
        num_blocks=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_property_any_shape_any_grid(self, n, m, num_blocks, seed):
        algo = SmithWaterman(n, m, seed=seed)
        run_rounds_serially(algo, num_blocks)
        algo.verify()
