"""Span tracing for phase accounting.

The harness reproduces the paper's §7.3 methodology (synchronization time
= total kernel time − computation-only time), but the device model also
records *spans* — ``(owner, phase, start, end)`` intervals — so breakdowns
(Fig. 15 / Table 1) can be cross-checked structurally and tests can assert
ordering invariants ("no block enters round i+1 before every block left
round i").

A trace can also hold a *spliced* run: :meth:`Trace.splice` repeats one
recorded period many times (the harness's steady-state fast-forward).
Counts and per-phase totals of a spliced trace are arithmetic; its
spans are built only when something reads them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
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
        meta = self.meta
        if meta is not None and "round" in meta:
            meta = {**meta, "round": meta["round"] + rounds}
        owner = self.owner if relabel is None else relabel(self.owner, rounds)
        return Span(owner, self.phase, self.start + ns, self.end + ns, meta)


#: ``(owner, rounds) -> owner`` renaming for :meth:`Span.shifted`.
Relabel = Callable[[str, int], str]


@dataclass(frozen=True)
class _Splice:
    """``copies`` repeats of the ``period`` spans ending at index ``at``.

    ``end`` is the span count when the splice was made: the tail
    ``[at, end)`` moves past the copies, spans added later do not.
    """

    at: int
    end: int
    period: int
    copies: int
    period_ns: int
    relabel: Optional[Relabel]


def _duration(spans: List[Span], phase: Optional[str]) -> int:
    """Summed length of the ``spans`` in ``phase`` (all when None)."""
    return sum(s.end - s.start for s in spans if phase is None or s.phase == phase)


class Trace:
    """An append-only collection of spans with simple aggregation helpers."""

    def __init__(self) -> None:
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
        self._spans.append(span)
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
        materializes them.
        """
        spans = self._materialize()
        if not 0 < period <= at <= len(spans) or copies < 0:
            raise ValueError(
                f"bad splice: period {period} ending at {at} of "
                f"{len(spans)} spans, {copies} copies"
            )
        self._splice = _Splice(at, len(spans), period, copies, period_ns, relabel)

    def _materialize(self) -> List[Span]:
        """The full span list, building a pending splice first."""
        cut = self._splice
        if cut is not None:
            spans = self._spans
            segment = spans[cut.at - cut.period : cut.at]
            out = spans[: cut.at]
            for k in range(1, cut.copies + 1):
                ns = k * cut.period_ns
                out.extend(s.shifted(ns, k, cut.relabel) for s in segment)
            ns = cut.copies * cut.period_ns
            tail = spans[cut.at : cut.end]
            out.extend(s.shifted(ns, cut.copies, cut.relabel) for s in tail)
            out.extend(spans[cut.end :])
            self._spans = out
            self._splice = None
        return self._spans

    def __iter__(self) -> Iterator[Span]:
        return iter(self._materialize())

    def __len__(self) -> int:
        cut = self._splice
        extra = 0 if cut is None else cut.period * cut.copies
        return len(self._spans) + extra

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
            return sum(s.duration for s in self.spans(phase, owner))
        segment = self._spans[cut.at - cut.period : cut.at]
        return _duration(self._spans, phase) + cut.copies * _duration(segment, phase)

    def phases(self) -> List[str]:
        """Distinct phase names in first-appearance order."""
        seen: Dict[str, None] = {}
        for s in self._spans:
            seen.setdefault(s.phase, None)
        return list(seen)

    def by_phase(self) -> Dict[str, int]:
        """Total duration per phase (ns)."""
        totals: Dict[str, int] = {}
        for s in self._spans:
            totals[s.phase] = totals.get(s.phase, 0) + s.duration
        cut = self._splice
        if cut is not None:
            for s in self._spans[cut.at - cut.period : cut.at]:
                totals[s.phase] += cut.copies * s.duration
        return totals

    def merge(self, others: Iterable["Trace"]) -> "Trace":
        """Return a new trace containing this trace's spans plus ``others``'."""
        merged = Trace()
        merged._spans.extend(self._materialize())
        for other in others:
            merged._spans.extend(other._materialize())
        merged._spans.sort(key=lambda s: (s.start, s.end))
        return merged

    def clear(self) -> None:
        """Drop all recorded spans."""
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
            (
                s.owner,
                s.phase,
                s.start,
                s.end,
                tuple(sorted(s.meta.items())) if s.meta else (),
            )
            for s in self._materialize()
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical span tuples (event-trace fingerprint)."""
        payload = json.dumps(
            self.to_tuples(), separators=(",", ":"), sort_keys=False, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
