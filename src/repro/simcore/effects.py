"""Effect objects yielded by simulated processes.

A process is a generator.  Each ``yield`` hands the engine one of the
effect objects below; the engine performs the effect and resumes the
generator with the effect's result (via ``generator.send``).

Effects are deliberately plain dataclasses with no behaviour: all
semantics live in :class:`repro.simcore.engine.Engine`, which keeps the
protocol auditable in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.process import Process
    from repro.simcore.resource import Resource
    from repro.simcore.signal import Signal


class Effect:
    """Base class for all effects (used only for isinstance checks)."""

    __slots__ = ()


@dataclass(frozen=True)
class Delay(Effect):
    """Suspend the process for ``ns`` nanoseconds of virtual time.

    ``ns`` must be a finite, non-negative number (NaN and infinity raise
    :class:`ValueError`); fractional nanoseconds are rounded to the
    nearest integer (the engine's clock is integral).  Resumes with
    ``None``.
    """

    ns: float

    def __post_init__(self) -> None:
        if not 0 <= self.ns < _INF:
            raise ValueError(
                f"Delay must be finite and non-negative, got {self.ns!r}"
            )


@dataclass(frozen=True)
class WaitUntil(Effect):
    """Block until ``predicate()`` is true, re-checking when ``signal`` fires.

    The predicate is evaluated once immediately; if already true the
    process resumes at the current time without blocking.  Otherwise the
    process is parked on the signal and the predicate is re-evaluated on
    every :meth:`~repro.simcore.signal.Signal.fire`.

    Resumes with the number of times the predicate was evaluated while
    blocked (0 if it was true immediately).  Callers that model spin
    loops use this count to charge a per-poll cost.
    """

    signal: "Signal"
    predicate: Callable[[], bool]
    reason: str = "wait-until"


@dataclass(frozen=True)
class Acquire(Effect):
    """Acquire one unit of a FIFO :class:`~repro.simcore.resource.Resource`.

    Blocks until granted.  Resumes with the virtual time spent queueing
    (nanoseconds), which callers use to account for serialization (e.g.
    atomic-unit contention).
    """

    resource: "Resource"
    reason: str = "acquire"


@dataclass(frozen=True)
class Release(Effect):
    """Release one unit of a resource previously acquired. Resumes with None."""

    resource: "Resource"


@dataclass(frozen=True)
class Spawn(Effect):
    """Start a child process running ``generator``.

    Resumes with the new :class:`~repro.simcore.process.Process` handle.
    The child is scheduled at the current virtual time.
    """

    generator: Generator[Effect, Any, Any]
    name: str = "proc"


@dataclass(frozen=True)
class Join(Effect):
    """Block until ``process`` finishes. Resumes with its return value."""

    process: "Process"
    reason: str = "join"


@dataclass(frozen=True)
class Fire(Effect):
    """Fire a signal, waking any waiters whose predicates now hold.

    Resumes with ``None``.  Most code fires signals through higher-level
    APIs (e.g. memory stores); this effect exists for direct use in tests
    and custom protocols.
    """

    signal: "Signal"
    payload: Any = None

