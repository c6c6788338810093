"""Smith-Waterman trace-back: from filled matrices to the alignment.

The paper parallelizes only the matrix *filling* ("the trace back ... is
essentially a sequential process", §6.2) and so do we; but a user
aligning sequences wants the alignment, not a score matrix.  This module
implements the sequential trace-back over the affine-gap matrices the
wavefront fill produced, with the standard three-state (H/E/F) walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = ["Alignment", "score_alignment", "traceback"]


@dataclass(frozen=True)
class Alignment:
    """One local alignment with its coordinates and score."""

    query: str  #: aligned query with '-' gaps
    subject: str  #: aligned subject with '-' gaps
    score: int
    query_span: Tuple[int, int]  #: [start, end) in the query (0-based)
    subject_span: Tuple[int, int]  #: [start, end) in the subject

    @property
    def length(self) -> int:
        """Alignment columns (matches + mismatches + gaps)."""
        return len(self.query)

    @property
    def identity(self) -> float:
        """Fraction of columns that are exact matches."""
        if not self.query:
            return 0.0
        matches = sum(a == b != "-" for a, b in zip(self.query, self.subject))
        return matches / len(self.query)

    def pretty(self) -> str:
        """Three-line rendering with a match rail."""
        rail = "".join(
            "|" if a == b != "-" else " " for a, b in zip(self.query, self.subject)
        )
        return f"{self.query}\n{rail}\n{self.subject}"


def score_alignment(
    query: str,
    subject: str,
    match: int,
    mismatch: int,
    gap_open: int,
    gap_extend: int,
) -> int:
    """Score an explicit alignment under affine-gap scoring.

    Independent of the DP matrices, so it can *verify* a trace-back: the
    emitted alignment must score exactly ``H.max()``.
    """
    if len(query) != len(subject):
        raise ConfigError("aligned strings must have equal length")
    score = 0
    in_gap_q = in_gap_s = False
    for a, b in zip(query, subject):
        if a == "-" and b == "-":
            raise ConfigError("a column cannot gap both sequences")
        if a == "-":
            score -= gap_open if not in_gap_q else gap_extend
            in_gap_q, in_gap_s = True, False
        elif b == "-":
            score -= gap_open if not in_gap_s else gap_extend
            in_gap_s, in_gap_q = True, False
        else:
            score += match if a == b else mismatch
            in_gap_q = in_gap_s = False
    return score


def traceback(swat) -> Alignment:
    """Trace the optimal local alignment out of a filled SmithWaterman.

    ``swat`` is a :class:`repro.algorithms.swat.SmithWaterman` whose
    rounds have all executed; reading its matrices applies any round
    work still pending in its batch first.  State preference on ties is
    diagonal > E (gap in query) > F (gap in subject), a standard,
    score-preserving convention.
    """
    H, E, F = swat.H, swat.E, swat.F
    q = swat.query.tobytes().decode("ascii")
    s = swat.subject.tobytes().decode("ascii")
    i, j = np.unravel_index(int(np.argmax(H)), H.shape)
    i, j = int(i), int(j)
    best = int(H[i, j])
    end_i, end_j = i, j
    if best == 0:
        return Alignment("", "", 0, (0, 0), (0, 0))

    out_q: list = []
    out_s: list = []
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            if H[i, j] == 0:
                break
            sub = swat.match if q[i - 1] == s[j - 1] else swat.mismatch
            if H[i, j] == H[i - 1, j - 1] + sub:
                out_q.append(q[i - 1])
                out_s.append(s[j - 1])
                i -= 1
                j -= 1
            elif H[i, j] == E[i, j]:
                state = "E"
            elif H[i, j] == F[i, j]:
                state = "F"
            else:  # pragma: no cover - would mean corrupted matrices
                raise ConfigError("inconsistent DP matrices in traceback")
        elif state == "E":
            out_q.append("-")
            out_s.append(s[j - 1])
            came_from_open = E[i, j] == H[i, j - 1] - swat.gap_open
            j -= 1
            if came_from_open:
                state = "H"
        else:  # state == "F"
            out_q.append(q[i - 1])
            out_s.append("-")
            came_from_open = F[i, j] == H[i - 1, j] - swat.gap_open
            i -= 1
            if came_from_open:
                state = "H"

    return Alignment(
        query="".join(reversed(out_q)),
        subject="".join(reversed(out_s)),
        score=best,
        query_span=(i, end_i),
        subject_span=(j, end_j),
    )
