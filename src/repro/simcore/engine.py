"""The discrete-event engine: event heap, effect dispatch, deadlock detection."""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush, heappushpop
from itertools import count
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
_BLOCKED = ProcessState.BLOCKED
#: a handler's return for "the process is parked; schedule nothing".
_PARKED = object()
_INF = float("inf")


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
        #: pending wakeups as ``[when, priority, seq, process, value]``
        #: entries.  A cancelled process's wakeup stays queued and is
        #: dropped when popped (its process is no longer alive).
        self._heap: List[List[Any]] = []
        self._tiebreak = tiebreak
        #: FIFO sequence numbers for the entries, in scheduling order.
        self._seq = count()
        self._pid = 0
        #: processes not yet finished, crashed or cancelled, by pid, in
        #: spawn order; a process leaves when it ends.
        self._live: Dict[int, Process] = {}
        self._max_events = max_events
        self._events_dispatched = 0
        self._running = False

    # -- public API ----------------------------------------------------------

    def spawn(
        self, generator: Generator[Effect, Any, Any], name: str = "proc", delay: int = 0
    ) -> Process:
        """Register ``generator`` as a new process starting ``delay`` ns from now.

        ``delay`` must be an ``int`` >= 0 (``bool`` is refused); anything
        else raises :class:`repro.errors.ConfigError`.
        """
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"spawn expects a generator, got {type(generator).__name__}"
            )
        if isinstance(delay, bool) or not isinstance(delay, int) or delay < 0:
            raise ConfigError(f"spawn delay must be an int >= 0, got {delay!r}")
        self._pid += 1
        process = Process(self._pid, name, generator)
        self._live[self._pid] = process
        process.state = _RUNNING
        process.started_at = when = self.now + delay
        self._schedule(process, when, None)
        return process

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event heap drains (or virtual time reaches ``until``).

        Returns the final virtual time.  Raises
        :class:`repro.errors.DeadlockError` if processes remain blocked
        when the heap drains, and re-raises any exception raised inside a
        process (annotated with the process name).  An ``until`` earlier
        than :attr:`now` raises :class:`repro.errors.ConfigError`: the
        clock never moves backwards.

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
        now = self.now
        if until is not None and until < now:
            raise ConfigError(f"run(until={until}) is before now={now}")
        horizon = _INF if until is None else until
        self._running = True
        # The loop keeps everything it touches per event in locals.  A
        # process's state and blocking fields are written where it
        # blocks and where it is woken, not on every resume.  A Delay
        # (about half of all events) is scheduled inline from its tick;
        # any other effect's handler returns the value to resume with at
        # once, or _PARKED.  The loop schedules that resumption itself,
        # and heappushpop hands back the same next entry a push followed
        # by a pop would.
        heap = self._heap
        dispatch = self._dispatch
        tiebreak = self._tiebreak
        seq = self._seq
        events = self._events_dispatched
        limit = self._max_events
        try:
            while heap:
                entry = heappop(heap)
                while True:
                    when, _priority, _seq, process, value = entry
                    if not process.alive:
                        # The wakeup of a cancelled process: skipped
                        # *before* the horizon check or advancing the
                        # clock, so dead wakeups neither pause the run
                        # nor inflate the final virtual time.
                        break
                    if when != now:
                        if when > horizon:
                            heappush(heap, entry)
                            self.now = until
                            return until
                        if when < now:
                            raise SimulationError("time went backwards (engine bug)")
                        self.now = now = when
                    events += 1
                    if events > limit:
                        raise SimulationError(
                            f"exceeded max_events={limit}; "
                            "likely a runaway simulation"
                        )
                    self._events_dispatched = events
                    try:
                        effect = process.generator.send(value)
                    except StopIteration as stop:
                        self._finish(process, stop.value)
                        break
                    except BaseException as exc:
                        self._crash(process, exc)
                    try:
                        tick = effect.tick
                    except AttributeError:
                        tick = None
                    # The process's next wakeup, built as _schedule does.
                    if tick is not None:
                        entry = [
                            now + tick,
                            0.0 if tiebreak is None else tiebreak(),
                            next(seq),
                            process,
                            None,
                        ]
                    else:
                        try:
                            handler = dispatch[effect.__class__]
                        except KeyError:
                            handler = self._handler_for(process, effect)
                        value = handler(self, process, effect)
                        if value is _PARKED:
                            break
                        entry = [
                            now,
                            0.0 if tiebreak is None else tiebreak(),
                            next(seq),
                            process,
                            value,
                        ]
                    entry = heappushpop(heap, entry)
        finally:
            self._running = False

        blocked = [(p.name, p.waiting_on or "unknown") for p in self._live.values()]
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
        had already finished.  A process cancelled before its start time
        keeps ``started_at`` at ``None``.
        """
        if not process.alive:
            return False
        now = self.now
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
            self._grant(resource)
        process.holding.clear()
        # A pending wakeup stays queued: run() drops it when popped, as
        # the process is no longer alive.
        if process.started_at is not None and process.started_at > now:
            process.started_at = None
        process.state = ProcessState.CANCELLED
        process.alive = False
        del self._live[process.pid]
        process.result = Cancelled(reason)
        process.finished_at = now
        process.waiting_on = None
        process.generator.close()
        self._wake_joiners(process, process.result)
        return True

    def fire(self, signal: Signal) -> int:
        """Fire ``signal`` now, waking waiters whose predicates hold.

        Returns the number of processes woken.  Safe to call from outside
        process context (e.g. a memory store performed while dispatching
        another process's effect).
        """
        ready = signal._collect_ready()
        now = self.now
        for process, polls in ready:
            process.state = _RUNNING
            process.waiting_on = None
            process.blocked_on = None
            self._schedule(process, now, polls)
        return len(ready)

    @property
    def live_processes(self) -> List[Process]:
        """Processes that have not yet finished."""
        return list(self._live.values())

    @property
    def blocked_processes(self) -> List[Tuple[str, str]]:
        """``(name, reason)`` for every live process parked on something.

        The same shape :class:`repro.errors.DeadlockError` reports, but
        available *while* the simulation is paused — use it after
        ``run(until=...)`` returns at the horizon to distinguish "paused
        with work pending" from "deadlocked at the horizon", or from a
        monitoring process.
        """
        return [
            (p.name, p.waiting_on or "unknown")
            for p in self._live.values()
            if p.state == ProcessState.BLOCKED
        ]

    def pending_events(self, ignore: Tuple[Process, ...] = ()) -> int:
        """Scheduled wakeups of live processes, excluding ``ignore``.

        A positive count means some process will run again without
        outside help; zero with :attr:`blocked_processes` non-empty is a
        certain deadlock (nothing left to fire the signals they wait
        on).  ``ignore`` discounts the caller's own processes, e.g. a
        monitoring process's timer, to ask "can anyone *else* still make
        progress?".  Counting scans the queue, so the event loop keeps no
        live-entry counter.
        """
        return sum(
            1 for entry in self._heap
            if entry[3].alive and entry[3] not in ignore
        )

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next live scheduled wakeup, or ``None``.

        The step-driver API (:mod:`repro.cudaapi`) uses this with
        ``run(until=...)`` to advance the clock one event at a time.
        Wakeups of cancelled processes at the head are pruned as a side
        effect.
        """
        heap = self._heap
        while heap and not heap[0][3].alive:
            heappop(heap)
        return heap[0][0] if heap else None

    @property
    def events_dispatched(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._events_dispatched

    # -- internals -------------------------------------------------------------

    def _schedule(self, process: Process, when: int, value: Any) -> None:
        tiebreak = self._tiebreak
        entry = [
            when,
            0.0 if tiebreak is None else tiebreak(),
            next(self._seq),
            process,
            value,
        ]
        heappush(self._heap, entry)

    def _grant(self, resource: Resource) -> None:
        """Return a unit of ``resource``, waking the queue head it passes to."""
        granted = resource._release()
        if granted is not None:
            woken, enq_time = granted
            woken.state = _RUNNING
            woken.waiting_on = None
            woken.blocked_on = None
            woken.holding.append(resource)
            self._schedule(woken, self.now, self.now - enq_time)

    def _wake_joiners(self, process: Process, result: Any) -> None:
        """Resume every process joined on the finished ``process``."""
        now = self.now
        for joiner in process.joiners:
            joiner.state = _RUNNING
            joiner.waiting_on = None
            joiner.blocked_on = None
            self._schedule(joiner, now, result)
        process.joiners.clear()

    def _crash(self, process: Process, exc: BaseException) -> NoReturn:
        """Record a process failure and re-raise it annotated."""
        process.state = ProcessState.FAILED
        process.alive = False
        del self._live[process.pid]
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
        del self._live[process.pid]
        process.result = result
        process.finished_at = self.now
        if process.joiners:
            self._wake_joiners(process, result)

    # -- effect handlers: ``_dispatch`` maps each effect type to one ------------
    #
    # A Delay never reaches this table: :meth:`run` schedules it inline
    # from its tick.  A handler returns the value to resume the process
    # with now, and :meth:`run` schedules that; a handler that parks the
    # process sets its blocking fields and returns _PARKED, and whatever
    # wakes it clears them.

    def _handler_for(self, process: Process, effect: Any) -> Callable[..., Any]:
        """The handler of an :class:`Effect` subclass, or raise for a non-effect."""
        for cls in type(effect).__mro__:
            handler = self._dispatch.get(cls)
            if handler is not None:
                return handler
        raise ProcessError(
            f"process {process.name!r} yielded non-effect "
            f"{type(effect).__name__}: {effect!r}"
        )

    def _on_wait_until(self, process: Process, effect: WaitUntil) -> Any:
        if effect.predicate():
            return 0
        signal = effect.signal
        process.state = _BLOCKED
        process.waiting_on = f"{effect.reason} (signal {signal.name!r})"
        process.blocked_on = signal
        signal._add_waiter(process, effect.predicate, effect.reason)
        return _PARKED

    def _on_acquire(self, process: Process, effect: Acquire) -> Any:
        resource = effect.resource
        if resource._try_acquire():
            process.holding.append(resource)
            return 0
        process.state = _BLOCKED
        process.waiting_on = f"{effect.reason} (resource {resource.name!r})"
        process.blocked_on = resource
        resource._enqueue(process, self.now, effect.reason)
        return _PARKED

    def _on_release(self, process: Process, effect: Release) -> None:
        resource = effect.resource
        holding = process.holding
        if resource not in holding:
            raise ProcessError(
                f"process {process.name!r} released resource "
                f"{resource.name!r} it does not hold"
            )
        holding.remove(resource)
        self._grant(resource)
        return None

    def _on_spawn(self, process: Process, effect: Spawn) -> Process:
        return self.spawn(effect.generator, name=effect.name)

    def _on_join(self, process: Process, effect: Join) -> Any:
        target = effect.process
        if not target.alive:
            return target.result
        process.state = _BLOCKED
        process.waiting_on = f"{effect.reason} (process {target.name!r})"
        process.blocked_on = target
        target.joiners.append(process)
        return _PARKED

    def _on_fire(self, process: Process, effect: Fire) -> None:
        self.fire(effect.signal)
        return None

    #: effect type -> handler, looked up once per non-Delay event by :meth:`run`.
    _dispatch: Dict[type, Callable[..., Any]] = {
        WaitUntil: _on_wait_until,
        Acquire: _on_acquire,
        Release: _on_release,
        Spawn: _on_spawn,
        Join: _on_join,
        Fire: _on_fire,
    }
