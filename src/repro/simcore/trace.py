"""Span tracing for phase accounting.

The harness reproduces the paper's §7.3 methodology (synchronization time
= total kernel time − computation-only time), but the device model also
records *spans* — ``(owner, phase, start, end)`` intervals — so breakdowns
(Fig. 15 / Table 1) can be cross-checked structurally and tests can assert
ordering invariants ("no block enters round i+1 before every block left
round i").

Spans are stored as plain ``(owner, phase, start, end, meta)`` rows —
one tuple per span, appended on the device's hot path — and
:class:`Span` objects are built from them only when something reads
them.  Counts, totals, per-phase totals and the digest come straight
from the rows.

A trace can also hold a *spliced* run: :meth:`Trace.splice` repeats one
recorded period many times (the harness's steady-state fast-forward).
Counts and per-phase totals of a spliced trace are arithmetic; its
rows are built only when something reads them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, sub
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Trace"]


@dataclass(frozen=True)
class Span:
    """One traced interval of virtual time."""

    owner: str  #: e.g. "block3", "host", "sm0"
    phase: str  #: e.g. "compute", "sync", "launch", "atomic"
    start: int  #: ns
    end: int  #: ns
    meta: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> int:
        """Span length in nanoseconds."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    def shifted(
        self, ns: int, rounds: int, relabel: Optional[Relabel] = None
    ) -> "Span":
        """This span ``ns`` later and ``rounds`` rounds on.

        A ``round`` meta entry advances by ``rounds``; ``relabel(owner,
        rounds)``, when given, renames the owner (per-round kernel names).
        """
        return Span(*shifted_row(
            (self.owner, self.phase, self.start, self.end, self.meta),
            ns, rounds, relabel,
        ))


#: ``(owner, rounds) -> owner`` renaming for :meth:`Span.shifted`.
Relabel = Callable[[str, int], str]

#: one stored span: ``(owner, phase, start, end, meta)``.
Row = Tuple[str, str, int, int, Optional[Dict[str, Any]]]


def shifted_row(row: Row, ns: int, rounds: int, relabel: Optional[Relabel]) -> Row:
    """:meth:`Span.shifted` on a stored row."""
    owner, phase, start, end, meta = row
    if meta is not None and "round" in meta:
        meta = {**meta, "round": meta["round"] + rounds}
    if relabel is not None:
        owner = relabel(owner, rounds)
    return (owner, phase, start + ns, end + ns, meta)


@dataclass(frozen=True)
class _Splice:
    """``copies`` repeats of the ``period`` rows ending at index ``at``.

    ``end`` is the row count when the splice was made: the tail
    ``[at, end)`` moves past the copies, rows added later do not.
    """

    at: int
    end: int
    period: int
    copies: int
    period_ns: int
    relabel: Optional[Relabel]


def _duration(
    rows: List[Row], phase: Optional[str], owner: Optional[str] = None
) -> int:
    """Summed length of the ``rows`` in ``phase`` and of ``owner`` (None: all)."""
    return sum(
        r[3] - r[2]
        for r in rows
        if (phase is None or r[1] == phase) and (owner is None or r[0] == owner)
    )


def _phase_totals(rows: List[Row]) -> Dict[str, int]:
    """Summed length per phase of ``rows``, in first-appearance order.

    One pass per distinct phase, each through C-level iterators: a
    trace holds a handful of phases but tens of thousands of rows.
    """
    phases = list(map(itemgetter(1), rows))
    lengths = list(map(sub, map(itemgetter(3), rows), map(itemgetter(2), rows)))
    return {
        phase: sum(compress(lengths, map(eq, phases, repeat(phase))))
        for phase in dict.fromkeys(phases)
    }


class Trace:
    """An append-only collection of spans with simple aggregation helpers."""

    def __init__(self) -> None:
        #: the spans in recording order, as ``(owner, phase, start, end,
        #: meta)`` rows.  Append-only: the device appends to it directly
        #: (``start <= end`` always holds there); other code should go
        #: through :meth:`add`, which validates.
        self.rows: List[Row] = []
        #: :class:`Span` objects built so far, for ``rows[:len(_spans)]``.
        self._spans: List[Span] = []
        self._splice: Optional[_Splice] = None

    def add(
        self,
        owner: str,
        phase: str,
        start: int,
        end: int,
        **meta: Any,
    ) -> Span:
        """Record a span and return it."""
        span = Span(owner, phase, start, end, meta or None)
        self.rows.append((owner, phase, start, end, span.meta))
        return span

    def splice(
        self,
        at: int,
        period: int,
        copies: int,
        period_ns: int,
        relabel: Optional[Relabel] = None,
    ) -> None:
        """Insert ``copies`` repeats of the ``period`` spans before index ``at``.

        Copy ``k`` (from 1) is that segment :meth:`Span.shifted` by ``k *
        period_ns`` and ``k`` rounds; every span from ``at`` on moves
        past the copies (spans :meth:`add`-ed afterwards are kept where
        they are).  Nothing is built here: :func:`len`,
        :meth:`total` and :meth:`by_phase` count the copies
        arithmetically, and the first read of the spans themselves
        builds them.
        """
        rows = self._unsplice()
        if not 0 < period <= at <= len(rows) or copies < 0:
            raise ValueError(
                f"bad splice: period {period} ending at {at} of "
                f"{len(rows)} spans, {copies} copies"
            )
        self._splice = _Splice(at, len(rows), period, copies, period_ns, relabel)

    def _unsplice(self) -> List[Row]:
        """The full row list, building a pending splice's rows first."""
        cut = self._splice
        rows = self.rows
        if cut is not None:
            segment = rows[cut.at - cut.period : cut.at]
            out = rows[: cut.at]
            for k in range(1, cut.copies + 1):
                ns = k * cut.period_ns
                out.extend(shifted_row(r, ns, k, cut.relabel) for r in segment)
            ns = cut.copies * cut.period_ns
            tail = rows[cut.at : cut.end]
            out.extend(shifted_row(r, ns, cut.copies, cut.relabel) for r in tail)
            out.extend(rows[cut.end :])
            rows[:] = out
            del self._spans[cut.at :]
            self._splice = None
        return rows

    def _materialize(self) -> List[Span]:
        """Every span as a :class:`Span`, building the ones not yet read."""
        rows = self._unsplice()
        spans = self._spans
        if len(spans) < len(rows):
            spans.extend(Span(*row) for row in rows[len(spans) :])
        return spans

    def __iter__(self) -> Iterator[Span]:
        return iter(self._materialize())

    def __len__(self) -> int:
        cut = self._splice
        extra = 0 if cut is None else cut.period * cut.copies
        return len(self.rows) + extra

    def spans(
        self, phase: Optional[str] = None, owner: Optional[str] = None
    ) -> List[Span]:
        """Spans filtered by phase and/or owner."""
        out = self._materialize()
        if phase is not None:
            out = [s for s in out if s.phase == phase]
        if owner is not None:
            out = [s for s in out if s.owner == owner]
        return list(out)

    def total(self, phase: Optional[str] = None, owner: Optional[str] = None) -> int:
        """Sum of durations over the filtered spans (ns)."""
        cut = self._splice
        if owner is not None or cut is None:
            return _duration(self._unsplice(), phase, owner)
        segment = self.rows[cut.at - cut.period : cut.at]
        return _duration(self.rows, phase) + cut.copies * _duration(segment, phase)

    def phases(self) -> List[str]:
        """Distinct phase names in first-appearance order."""
        return list(dict.fromkeys(r[1] for r in self.rows))

    def by_phase(self) -> Dict[str, int]:
        """Total duration per phase (ns), in first-appearance order."""
        totals = _phase_totals(self.rows)
        cut = self._splice
        if cut is not None:
            segment = _phase_totals(self.rows[cut.at - cut.period : cut.at])
            for phase, ns in segment.items():
                totals[phase] += cut.copies * ns
        return totals

    def merge(self, others: Iterable["Trace"]) -> "Trace":
        """Return a new trace containing this trace's spans plus ``others``'."""
        merged = Trace()
        merged.rows.extend(self._unsplice())
        for other in others:
            merged.rows.extend(other._unsplice())
        merged.rows.sort(key=lambda r: (r[2], r[3]))
        return merged

    def clear(self) -> None:
        """Drop all recorded spans."""
        self.rows.clear()
        self._spans.clear()
        self._splice = None

    # -- canonical export (differential testing) ---------------------------

    def to_tuples(self) -> List[Tuple[Any, ...]]:
        """Spans as plain tuples in recording order.

        ``(owner, phase, start, end, sorted_meta_items)`` — a canonical,
        order-preserving form two traces can be compared on directly
        (the cross-commit goldens digest exactly this).
        """
        return [
            (owner, phase, start, end, tuple(sorted(meta.items())) if meta else ())
            for owner, phase, start, end, meta in self._unsplice()
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical span tuples (event-trace fingerprint)."""
        payload = json.dumps(
            self.to_tuples(), separators=(",", ":"), sort_keys=False, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
