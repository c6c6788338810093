"""Effect objects yielded by simulated processes.

A process is a generator.  Each ``yield`` hands the engine one of the
effect objects below; the engine performs the effect and resumes the
generator with the effect's result (via ``generator.send``).

Effects are plain records with no behaviour: all semantics live in
:class:`repro.simcore.engine.Engine`, which keeps the protocol auditable
in one place.  :class:`Delay` is an immutable dataclass, shared by every
op of one duration; the others are built afresh per yield, so they are
lightweight ``__slots__`` classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.process import Process
    from repro.simcore.resource import Resource
    from repro.simcore.signal import Signal


class Effect:
    """Base class for all effects (used only for isinstance checks)."""

    __slots__ = ()

    #: whole nanoseconds a :class:`Delay` suspends for; ``None`` for
    #: every other effect.  The engine dispatches on it.
    tick: Optional[int] = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True)
class Delay(Effect):
    """Suspend the process for ``ns`` nanoseconds of virtual time.

    ``ns`` must be a finite, non-negative number (NaN and infinity raise
    :class:`ValueError`); fractional nanoseconds are rounded to the
    nearest integer (the engine's clock is integral), once, into
    :attr:`tick`.  Resumes with ``None``.
    """

    ns: float
    tick: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ns < _INF:
            raise ValueError(
                f"Delay must be finite and non-negative, got {self.ns!r}"
            )
        object.__setattr__(self, "tick", int(round(self.ns)))


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

    __slots__ = ("signal", "predicate", "reason")

    def __init__(
        self,
        signal: "Signal",
        predicate: Callable[[], bool],
        reason: str = "wait-until",
    ) -> None:
        self.signal = signal
        self.predicate = predicate
        self.reason = reason


class Acquire(Effect):
    """Acquire one unit of a FIFO :class:`~repro.simcore.resource.Resource`.

    Blocks until granted.  Resumes with the virtual time spent queueing
    (nanoseconds), which callers use to account for serialization (e.g.
    atomic-unit contention).
    """

    __slots__ = ("resource", "reason")

    def __init__(self, resource: "Resource", reason: str = "acquire") -> None:
        self.resource = resource
        self.reason = reason


class Release(Effect):
    """Release one unit of a resource previously acquired. Resumes with None."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource


class Spawn(Effect):
    """Start a child process running ``generator``.

    Resumes with the new :class:`~repro.simcore.process.Process` handle.
    The child is scheduled at the current virtual time.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self, generator: Generator[Effect, Any, Any], name: str = "proc"
    ) -> None:
        self.generator = generator
        self.name = name


class Join(Effect):
    """Block until ``process`` finishes. Resumes with its return value."""

    __slots__ = ("process", "reason")

    def __init__(self, process: "Process", reason: str = "join") -> None:
        self.process = process
        self.reason = reason


class Fire(Effect):
    """Fire a signal, waking any waiters whose predicates now hold.

    Resumes with ``None``.  Most code fires signals through higher-level
    APIs (e.g. memory stores); this effect exists for direct use in tests
    and custom protocols.
    """

    __slots__ = ("signal", "payload")

    def __init__(self, signal: "Signal", payload: Any = None) -> None:
        self.signal = signal
        self.payload = payload
