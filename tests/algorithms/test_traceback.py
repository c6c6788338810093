"""Tests for the Smith-Waterman trace-back."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SmithWaterman
from repro.algorithms.traceback import score_alignment, traceback
from repro.errors import ConfigError

from tests.algorithms.conftest import run_rounds_serially


def filled(query: bytes, subject: bytes, **kw) -> SmithWaterman:
    algo = SmithWaterman(len(query), len(subject), **kw)
    algo.query = np.frombuffer(query, dtype=np.uint8)
    algo.subject = np.frombuffer(subject, dtype=np.uint8)
    run_rounds_serially(algo, 4)
    return algo


class TestScoreAlignment:
    def test_matches_and_mismatches(self):
        assert score_alignment("ACGT", "ACGA", 2, -1, 3, 1) == 5

    def test_affine_gap_costs(self):
        # one gap of length 3: open + 2 extensions = 3 + 1 + 1.
        assert score_alignment("AAA---G", "AAACCCG", 2, -1, 3, 1) == 8 - 5

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            score_alignment("AB", "A", 2, -1, 3, 1)
        with pytest.raises(ConfigError):
            score_alignment("-", "-", 2, -1, 3, 1)


class TestTraceback:
    def test_perfect_match(self):
        algo = filled(b"ACGT", b"ACGT")
        aln = traceback(algo)
        assert aln.query == aln.subject == "ACGT"
        assert aln.score == 8
        assert aln.identity == 1.0
        assert aln.query_span == (0, 4)

    def test_local_alignment_is_substring(self):
        algo = filled(b"ACG", b"TTACGTT")
        aln = traceback(algo)
        assert aln.query == "ACG"
        assert aln.subject == "ACG"
        assert aln.subject_span == (2, 5)

    def test_gap_in_alignment(self):
        # Query has an insertion relative to the subject.
        algo = filled(b"AAACCCTTT", b"AAATTT", gap_open=2, gap_extend=1)
        aln = traceback(algo)
        assert "-" in aln.subject
        assert aln.score == int(algo.H.max())

    def test_disjoint_sequences_empty_alignment(self):
        algo = filled(b"AAAA", b"TTTT")
        aln = traceback(algo)
        assert aln.length == 0
        assert aln.score == 0

    def test_pretty_rendering(self):
        algo = filled(b"ACGT", b"ACGT")
        lines = traceback(algo).pretty().splitlines()
        assert lines[0] == "ACGT"
        assert lines[1] == "||||"
        assert lines[2] == "ACGT"

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 24),
        m=st.integers(2, 24),
        seed=st.integers(0, 2**16),
    )
    def test_traceback_score_equals_matrix_score(self, n, m, seed):
        """The emitted alignment, scored independently, must equal the
        matrix optimum — the defining property of a correct trace-back."""
        algo = SmithWaterman(n, m, seed=seed)
        run_rounds_serially(algo, 3)
        aln = traceback(algo)
        rescored = score_alignment(
            aln.query, aln.subject, algo.match, algo.mismatch,
            algo.gap_open, algo.gap_extend,
        )
        assert rescored == aln.score == int(algo.H.max())

    def test_spans_index_original_sequences(self):
        algo = SmithWaterman(20, 20, seed=7)
        run_rounds_serially(algo, 3)
        aln = traceback(algo)
        q = algo.query.tobytes().decode()
        s = algo.subject.tobytes().decode()
        assert aln.query.replace("-", "") == q[aln.query_span[0] : aln.query_span[1]]
        assert (
            aln.subject.replace("-", "")
            == s[aln.subject_span[0] : aln.subject_span[1]]
        )


class TestInverseFFT:
    def test_inverse_matches_numpy(self):
        from repro.algorithms import FFT

        fft = FFT(n=256, inverse=True)
        run_rounds_serially(fft, 4)
        fft.verify()

    def test_round_trip_recovers_input(self):
        from repro.algorithms import FFT

        fwd = FFT(n=128, seed=3)
        run_rounds_serially(fwd, 4)
        inv = FFT(n=128, inverse=True)
        inv.input = fwd.buf.copy()
        inv.reset()
        run_rounds_serially(inv, 4)
        assert np.allclose(inv.buf / 128, fwd.input)
