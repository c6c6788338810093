"""The discrete-event engine: event heap, effect dispatch, deadlock detection."""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    NoReturn,
    Optional,
    Tuple,
)

from repro.errors import ConfigError, DeadlockError, ProcessError, SimulationError
from repro.simcore.effects import (
    Acquire,
    Delay,
    Effect,
    Fire,
    Join,
    Release,
    Spawn,
    WaitUntil,
)
from repro.simcore.process import Cancelled, Process, ProcessState
from repro.simcore.resource import Resource
from repro.simcore.signal import Signal

__all__ = ["Engine", "use_engine_mode"]

_RUNNING = ProcessState.RUNNING


@contextmanager
def use_engine_mode(mode: str) -> Iterator[str]:
    """Accept an event-core name; :class:`Engine` runs under either.

    The simulator has one event core.  ``"reference"`` and ``"fast"``
    both name it, so a script that times one name against the other
    measures the same engine twice.  Any other name raises
    :class:`repro.errors.ConfigError`.  Nothing changes inside the
    ``with`` block.
    """
    if mode not in ("reference", "fast"):
        raise ConfigError(
            f"unknown engine mode {mode!r}; expected 'reference' or 'fast'"
        )
    yield mode


class Engine:
    """A deterministic process-oriented discrete-event simulator.

    Virtual time is an integer nanosecond counter starting at 0.  Events
    at equal times execute in scheduling order (FIFO), which makes every
    run exactly reproducible.

    Typical use::

        engine = Engine()
        engine.spawn(my_generator(), name="host")
        engine.run()
        print(engine.now)

    ``tiebreak`` perturbs the order of *same-time* events: when given, it
    is called once per scheduled event and its float return value ranks
    the event among events at the same virtual time (FIFO order breaks
    any remaining ties).  A seeded generator here explores adversarial
    interleavings deterministically — see
    :class:`repro.sanitize.ScheduleFuzzer`.  Virtual timestamps are
    unaffected, so a protocol that is only correct under FIFO dispatch
    is exposed without distorting any measurement.
    """

    def __init__(
        self,
        max_events: int = 200_000_000,
        tiebreak: Optional[Callable[[], float]] = None,
    ):
        #: current virtual time in nanoseconds.
        self.now: int = 0
        #: pending wakeups as mutable ``[when, priority, seq, process,
        #: value]`` entries; a cancelled entry is tombstoned in place
        #: (process slot set to None) and dropped lazily when popped.
        self._heap: List[List[Any]] = []
        self._tiebreak = tiebreak
        self._seq = 0
        self._pid = 0
        self._processes: List[Process] = []
        self._max_events = max_events
        self._events_dispatched = 0
        #: count of live (non-tombstoned) pending entries.
        self._live = 0
        self._running = False

    # -- public API ----------------------------------------------------------

    def spawn(
        self, generator: Generator[Effect, Any, Any], name: str = "proc", delay: int = 0
    ) -> Process:
        """Register ``generator`` as a new process starting ``delay`` ns from now."""
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"spawn expects a generator, got {type(generator).__name__}"
            )
        self._pid += 1
        process = Process(self._pid, name, generator)
        self._processes.append(process)
        process.state = ProcessState.RUNNING
        self._schedule(process, self.now + int(delay), None)
        return process

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event heap drains (or virtual time reaches ``until``).

        Returns the final virtual time.  Raises
        :class:`repro.errors.DeadlockError` if processes remain blocked
        when the heap drains, and re-raises any exception raised inside a
        process (annotated with the process name).

        **Horizon semantics.** With ``until`` given, the engine stops as
        soon as the next pending event lies beyond the horizon and
        returns ``until`` — *without* the deadlock check, because the
        future event proves the simulation can still make progress.  A
        deadlock is still raised at the horizon when the heap drains
        before reaching ``until``.  The remaining ambiguity is a heap
        whose only future events belong to processes unrelated to the
        blocked ones (e.g. a timer): after ``run(until=...)`` returns,
        inspect :attr:`blocked_processes` (who is parked, and on what)
        and :meth:`pending_events` to tell "paused, work pending" from
        "everything that matters is stuck".
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heap = self._heap
        dispatch = self._dispatch
        try:
            while heap:
                entry = heappop(heap)
                process = entry[3]
                if process is None:
                    # Tombstoned wakeup of a cancelled process: skip it
                    # *before* the horizon check or advancing the clock,
                    # so dead wakeups neither pause the run nor inflate
                    # the final virtual time.
                    continue
                when = entry[0]
                if until is not None and when > until:
                    # Push back and stop at the horizon.
                    heappush(heap, entry)
                    self.now = until
                    return self.now
                process._entry = None
                self._live -= 1
                if when < self.now:
                    raise SimulationError("time went backwards (engine bug)")
                self.now = when
                self._events_dispatched += 1
                if self._events_dispatched > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a runaway simulation"
                    )
                # Resume the process and hand its next effect to the
                # handler for that effect's type.
                if not process.alive:
                    raise SimulationError(
                        f"resumed finished process {process.name!r}"
                    )
                if process.started_at is None:
                    process.started_at = when
                process.state = _RUNNING
                process.waiting_on = None
                process.blocked_on = None
                try:
                    effect = process.generator.send(entry[4])
                except StopIteration as stop:
                    self._finish(process, stop.value)
                    continue
                except BaseException as exc:
                    self._crash(process, exc)
                try:
                    handler = dispatch[type(effect)]
                except KeyError:
                    handler = self._handler_for(process, effect)
                handler(self, process, effect)
        finally:
            self._running = False

        blocked = [
            (p.name, p.waiting_on or "unknown") for p in self._processes if p.alive
        ]
        if blocked:
            raise DeadlockError(blocked)
        return self.now

    def cancel(self, process: Process, reason: str = "cancelled") -> bool:
        """Kill a process: detach it, free its resources, wake joiners.

        The simulated analogue of the driver killing a kernel (or an
        operator killing a job): the process never runs again, resources
        it held are granted to the next waiters, and anything joined on
        it resumes with a :class:`~repro.simcore.process.Cancelled`
        sentinel carrying ``reason``.  Returns ``False`` if the process
        had already finished.
        """
        if not process.alive:
            return False
        # Detach from whatever it is parked on.
        blocker = process.blocked_on
        if isinstance(blocker, Signal):
            blocker._remove_waiter(process)
        elif isinstance(blocker, Resource):
            blocker._remove_queued(process)
        elif isinstance(blocker, Process):
            if process in blocker.joiners:
                blocker.joiners.remove(process)
        process.blocked_on = None
        # Hand its held resource units to the next waiters.
        for resource in process.holding:
            granted = resource._release()
            if granted is not None:
                woken, enq_time = granted
                woken.waiting_on = None
                woken.blocked_on = None
                woken.holding.append(resource)
                self._schedule(woken, self.now, self.now - enq_time)
        process.holding.clear()
        # Tombstone its pending wakeup, if any: O(1), no heap scan.  The
        # dead entry is dropped lazily when it reaches the queue head.
        entry = process._entry
        if entry is not None:
            process._entry = None
            self._live -= 1
            entry[3] = None
            entry[4] = None
        process.state = ProcessState.CANCELLED
        process.alive = False
        process.result = Cancelled(reason)
        process.finished_at = self.now
        process.waiting_on = None
        process.generator.close()
        for joiner in process.joiners:
            joiner.waiting_on = None
            joiner.blocked_on = None
            self._schedule(joiner, self.now, process.result)
        process.joiners.clear()
        return True

    def fire(self, signal: Signal) -> int:
        """Fire ``signal`` now, waking waiters whose predicates hold.

        Returns the number of processes woken.  Safe to call from outside
        process context (e.g. a memory store performed while dispatching
        another process's effect).
        """
        ready = signal._collect_ready()
        for process, polls in ready:
            process.waiting_on = None
            process.blocked_on = None
            self._schedule(process, self.now, polls)
        return len(ready)

    @property
    def live_processes(self) -> List[Process]:
        """Processes that have not yet finished."""
        return [p for p in self._processes if p.alive]

    @property
    def blocked_processes(self) -> List[Tuple[str, str]]:
        """``(name, reason)`` for every live process parked on something.

        The same shape :class:`repro.errors.DeadlockError` reports, but
        available *while* the simulation is paused — use it after
        ``run(until=...)`` returns at the horizon to distinguish "paused
        with work pending" from "deadlocked at the horizon", or from a
        monitoring process (see :class:`repro.faults.BarrierWatchdog`).
        """
        return [
            (p.name, p.waiting_on or "unknown")
            for p in self._processes
            if p.state == ProcessState.BLOCKED
        ]

    def pending_events(self, ignore: Tuple[Process, ...] = ()) -> int:
        """Scheduled wakeups of live processes, excluding ``ignore``.

        A positive count means some process will run again without
        outside help; zero with :attr:`blocked_processes` non-empty is a
        certain deadlock (nothing left to fire the signals they wait
        on).  ``ignore`` lets a watchdog discount its own timer when it
        asks "can anyone *else* still make progress?".
        """
        pending = self._live
        for p in ignore:
            if p._entry is not None:
                pending -= 1
        return pending

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next live scheduled wakeup, or ``None``.

        The step-driver API (:mod:`repro.cudaapi`) uses this with
        ``run(until=...)`` to advance the clock one event at a time.
        Tombstoned (cancelled) entries at the head are pruned as a side
        effect.
        """
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    @property
    def events_dispatched(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._events_dispatched

    # -- internals -------------------------------------------------------------

    def _schedule(self, process: Process, when: int, value: Any) -> None:
        priority = self._tiebreak() if self._tiebreak is not None else 0.0
        self._seq += 1
        entry: List[Any] = [when, priority, self._seq, process, value]
        process._entry = entry
        self._live += 1
        heappush(self._heap, entry)

    def _crash(self, process: Process, exc: BaseException) -> NoReturn:
        """Record a process failure and re-raise it annotated."""
        process.state = ProcessState.FAILED
        process.alive = False
        process.exception = exc
        process.finished_at = self.now
        from repro.errors import ReproError

        if isinstance(exc, ReproError):
            # Library errors keep their type (callers catch on it);
            # the failing process is recorded on the exception object.
            raise exc
        raise ProcessError(
            f"process {process.name!r} raised {type(exc).__name__}: {exc}"
        ) from exc

    def _finish(self, process: Process, result: Any) -> None:
        process.state = ProcessState.DONE
        process.alive = False
        process.result = result
        process.finished_at = self.now
        for joiner in process.joiners:
            joiner.waiting_on = None
            self._schedule(joiner, self.now, result)
        process.joiners.clear()

    # -- effect handlers: ``_dispatch`` maps each effect type to one ------------

    def _handler_for(self, process: Process, effect: Any) -> Callable[..., None]:
        """The handler of an :class:`Effect` subclass, or raise for a non-effect."""
        for cls in type(effect).__mro__:
            handler = self._dispatch.get(cls)
            if handler is not None:
                return handler
        raise ProcessError(
            f"process {process.name!r} yielded non-effect "
            f"{type(effect).__name__}: {effect!r}"
        )

    def _on_delay(self, process: Process, effect: Delay) -> None:
        # About half of all events are Delays: _schedule is inlined here
        # to save a call on each (same draw, seq and entry as _schedule).
        priority = self._tiebreak() if self._tiebreak is not None else 0.0
        self._seq += 1
        entry = [self.now + int(round(effect.ns)), priority, self._seq, process, None]
        process._entry = entry
        self._live += 1
        heappush(self._heap, entry)

    def _on_wait_until(self, process: Process, effect: WaitUntil) -> None:
        if effect.predicate():
            self._schedule(process, self.now, 0)
        else:
            process.state = ProcessState.BLOCKED
            process.waiting_on = f"{effect.reason} (signal {effect.signal.name!r})"
            process.blocked_on = effect.signal
            effect.signal._add_waiter(process, effect.predicate, effect.reason)

    def _on_acquire(self, process: Process, effect: Acquire) -> None:
        resource = effect.resource
        if resource._try_acquire():
            process.holding.append(resource)
            self._schedule(process, self.now, 0)
        else:
            process.state = ProcessState.BLOCKED
            process.waiting_on = f"{effect.reason} (resource {resource.name!r})"
            process.blocked_on = resource
            resource._enqueue(process, self.now, effect.reason)

    def _on_release(self, process: Process, effect: Release) -> None:
        if effect.resource not in process.holding:
            raise ProcessError(
                f"process {process.name!r} released resource "
                f"{effect.resource.name!r} it does not hold"
            )
        process.holding.remove(effect.resource)
        granted = effect.resource._release()
        if granted is not None:
            woken, enq_time = granted
            woken.waiting_on = None
            woken.blocked_on = None
            woken.holding.append(effect.resource)
            self._schedule(woken, self.now, self.now - enq_time)
        self._schedule(process, self.now, None)

    def _on_spawn(self, process: Process, effect: Spawn) -> None:
        child = self.spawn(effect.generator, name=effect.name)
        self._schedule(process, self.now, child)

    def _on_join(self, process: Process, effect: Join) -> None:
        target = effect.process
        if not target.alive:
            self._schedule(process, self.now, target.result)
        else:
            process.state = ProcessState.BLOCKED
            process.waiting_on = f"{effect.reason} (process {target.name!r})"
            process.blocked_on = target
            target.joiners.append(process)

    def _on_fire(self, process: Process, effect: Fire) -> None:
        self.fire(effect.signal)
        self._schedule(process, self.now, None)

    #: effect type -> handler, looked up once per event by :meth:`run`.
    _dispatch: Dict[type, Callable[..., None]] = {
        Delay: _on_delay,
        WaitUntil: _on_wait_until,
        Acquire: _on_acquire,
        Release: _on_release,
        Spawn: _on_spawn,
        Join: _on_join,
        Fire: _on_fire,
    }
