"""Span tracing for phase accounting.

The harness reproduces the paper's §7.3 methodology (synchronization time
= total kernel time − computation-only time), but the device model also
records *spans* — ``(owner, phase, start, end)`` intervals — so breakdowns
(Fig. 15 / Table 1) can be cross-checked structurally and tests can assert
ordering invariants ("no block enters round i+1 before every block left
round i").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

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


class Trace:
    """An append-only collection of spans with simple aggregation helpers."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

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

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(
        self, phase: Optional[str] = None, owner: Optional[str] = None
    ) -> List[Span]:
        """Spans filtered by phase and/or owner."""
        out = self._spans
        if phase is not None:
            out = [s for s in out if s.phase == phase]
        if owner is not None:
            out = [s for s in out if s.owner == owner]
        return list(out)

    def total(self, phase: Optional[str] = None, owner: Optional[str] = None) -> int:
        """Sum of durations over the filtered spans (ns)."""
        return sum(s.duration for s in self.spans(phase, owner))

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
        return totals

    def merge(self, others: Iterable["Trace"]) -> "Trace":
        """Return a new trace containing this trace's spans plus ``others``'."""
        merged = Trace()
        merged._spans.extend(self._spans)
        for other in others:
            merged._spans.extend(other._spans)
        merged._spans.sort(key=lambda s: (s.start, s.end))
        return merged

    def clear(self) -> None:
        """Drop all recorded spans."""
        self._spans.clear()

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
            for s in self._spans
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical span tuples (event-trace fingerprint)."""
        payload = json.dumps(
            self.to_tuples(), separators=(",", ":"), sort_keys=False, default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
