"""Signals: waitable notification points with predicate re-evaluation.

A :class:`Signal` is the engine's only blocking primitive besides
resources.  Simulated memory cells own a signal; a store fires it, and
every parked process whose predicate now holds is woken.  This gives
spin-loop semantics (the paper's ``while (g_mutex != goalVal)``) without
busy-ticking the event loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.process import Process

__all__ = ["Signal"]


class Signal:
    """A named notification point processes can wait on.

    Waiters are ``(process, predicate, polls)`` entries managed by the
    engine; ``polls`` counts predicate evaluations while blocked so
    callers can charge per-poll costs (see :class:`repro.simcore.effects.WaitUntil`).
    """

    __slots__ = ("name", "_waiters", "fire_count")

    def __init__(self, name: str = "signal") -> None:
        self.name = name
        #: list of [process, predicate, reason, polls] entries (mutable lists
        #: so the engine can bump the poll counter in place).
        self._waiters: List[list] = []
        #: total number of times this signal has fired (diagnostics).
        self.fire_count = 0

    # -- engine-facing API -------------------------------------------------

    def _add_waiter(
        self, process: "Process", predicate: Callable[[], bool], reason: str
    ) -> None:
        self._waiters.append([process, predicate, reason, 0])

    def _remove_waiter(self, process: "Process") -> None:
        self._waiters = [w for w in self._waiters if w[0] is not process]

    def _collect_ready(self) -> List[Tuple["Process", int]]:
        """Evaluate all waiter predicates; detach and return those now true.

        Returns ``(process, polls)`` pairs where ``polls`` includes this
        evaluation.  Predicates that raise propagate to the caller (the
        engine converts that into a process failure).
        """
        self.fire_count += 1
        ready: List[Tuple["Process", int]] = []
        still_waiting: List[list] = []
        for entry in self._waiters:
            process, predicate, _reason, polls = entry
            entry[3] = polls + 1
            if predicate():
                ready.append((process, entry[3]))
            else:
                still_waiting.append(entry)
        self._waiters = still_waiting
        return ready

    # -- introspection -----------------------------------------------------

    @property
    def waiter_count(self) -> int:
        """Number of processes currently parked on this signal."""
        return len(self._waiters)

    def waiting_processes(self) -> List[Tuple[str, str]]:
        """``(process_name, reason)`` pairs for deadlock diagnostics."""
        return [(w[0].name, w[2]) for w in self._waiters]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={self.waiter_count})"
