"""Process handles wrapping effect-yielding generators."""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional

from repro.simcore.effects import Effect

__all__ = ["Process", "ProcessState"]


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    CREATED = "created"
    RUNNING = "running"  # scheduled or executing
    BLOCKED = "blocked"  # parked on a signal / resource / join
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"  # killed via Engine.cancel()


class Cancelled:
    """Sentinel result delivered to joiners of a cancelled process."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"Cancelled({self.reason!r})"


class Process:
    """Handle for one simulated activity.

    Created by :meth:`repro.simcore.engine.Engine.spawn` or the
    :class:`~repro.simcore.effects.Spawn` effect; not instantiated
    directly by user code.
    """

    __slots__ = (
        "name",
        "pid",
        "generator",
        "state",
        "alive",
        "result",
        "exception",
        "waiting_on",
        "joiners",
        "started_at",
        "finished_at",
        "blocked_on",
        "holding",
    )

    def __init__(self, pid: int, name: str, generator: Generator[Effect, Any, Any]) -> None:
        self.pid = pid
        self.name = name
        self.generator = generator
        self.state = ProcessState.CREATED
        #: True while the process has not finished, failed or been
        #: killed; the engine clears it when it moves the process to
        #: DONE, FAILED or CANCELLED.
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: human-readable description of what the process is blocked on.
        self.waiting_on: Optional[str] = None
        #: processes blocked in a Join on this one.
        self.joiners: List["Process"] = []
        #: virtual time the process starts: set at spawn to the spawn
        #: time plus delay; ``None`` if it was cancelled before then.
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        #: the Signal / Resource / Process this process is parked on
        #: (engine bookkeeping for cancellation).
        self.blocked_on: Any = None
        #: resources currently held (units acquired and not yet released),
        #: in acquisition order — released on cancellation.
        self.holding: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process(#{self.pid} {self.name!r} {self.state.value})"
