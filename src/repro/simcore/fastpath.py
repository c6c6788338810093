"""The fast-path simulation core: epoch-jumping engine plus flag index.

The reference :class:`~repro.simcore.engine.Engine` pays a heap
round-trip for every event and re-evaluates every parked spin predicate
on every store.  Both costs are avoidable in the common case this
repository simulates — long ``Delay`` chains and thousands of spin polls
whose outcome is analytically known.  :class:`FastEngine` keeps the
reference engine's event heap and run loop and adds two mechanisms:

* an **epoch jump** (the pump in :meth:`FastEngine._step`): when a
  resumed process only yields ``Delay`` or ``Fire`` effects and its next
  wakeup still precedes every other pending event (and the run horizon),
  the engine advances the clock and resumes it in place — no heap
  round-trip at all.
* :class:`FlagIndex`, which indexes spin waiters that declare their wait
  predicate (:class:`~repro.simcore.effects.WaitSpec`) by cell and
  threshold.  A store then wakes exactly the satisfied waiters via heap
  peeks instead of evaluating every parked lambda — the quiescence rule:
  a spinner whose threshold is unmet cannot run before the next store,
  so it is never polled.

Every observable of the reference engine is reproduced bit-for-bit:
virtual timestamps, dispatch order (``(when, priority, seq)``), poll
counts, trace spans, tiebreak PRNG draws, and error/deadlock behaviour.
The reference engine stays available as the oracle
(``engine_mode="reference"``); ``tests/simcore/test_fastpath_equiv.py``
holds the two to byte-identical results.  See ``docs/engine.md``.
"""

from __future__ import annotations

import heapq
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, SimulationError
from repro.simcore.effects import Delay, Effect, Fire, WaitSpec, WaitUntil
from repro.simcore.engine import Engine
from repro.simcore.process import Process, ProcessState
from repro.simcore.signal import Signal

__all__ = [
    "ENGINE_MODES",
    "ENGINE_MODE_ENV",
    "FastEngine",
    "FlagIndex",
    "make_engine",
    "resolve_engine_mode",
    "use_engine_mode",
]

#: the two interchangeable event cores; "reference" is the oracle.
ENGINE_MODES = ("reference", "fast")

#: environment variable consulted by :func:`resolve_engine_mode` — the
#: way to flip mode across process boundaries (parallel sweep workers,
#: CI jobs).
ENGINE_MODE_ENV = "REPRO_ENGINE_MODE"

_mode_override: Optional[str] = None


def resolve_engine_mode(mode: Optional[str] = None) -> str:
    """Resolve an engine mode: explicit arg > context override > env > default.

    ``mode=None`` consults the :func:`use_engine_mode` override, then the
    ``REPRO_ENGINE_MODE`` environment variable, then defaults to
    ``"reference"``.  Raises :class:`repro.errors.ConfigError` on an
    unknown mode name.
    """
    if mode is None:
        mode = _mode_override
    if mode is None:
        mode = os.environ.get(ENGINE_MODE_ENV) or "reference"
    if mode not in ENGINE_MODES:
        raise ConfigError(
            f"unknown engine_mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


@contextmanager
def use_engine_mode(mode: str) -> Iterator[str]:
    """Context manager forcing the default engine mode within its scope.

    Affects engines created in *this* process with ``engine_mode=None``
    (parallel sweep workers run in subprocesses — set
    ``REPRO_ENGINE_MODE`` for those).  The differential test suite uses
    this to run the same driver under both cores.
    """
    global _mode_override
    resolved = resolve_engine_mode(mode)
    previous = _mode_override
    _mode_override = resolved
    try:
        yield resolved
    finally:
        _mode_override = previous


def make_engine(
    mode: Optional[str] = None,
    *,
    max_events: int = 200_000_000,
    tiebreak: Optional[Callable[[], float]] = None,
) -> Engine:
    """Build an engine for ``mode`` (see :func:`resolve_engine_mode`)."""
    if resolve_engine_mode(mode) == "fast":
        return FastEngine(max_events=max_events, tiebreak=tiebreak)
    return Engine(max_events=max_events, tiebreak=tiebreak)


class FlagIndex:
    """Threshold index over a signal's declared (:class:`WaitSpec`) waiters.

    Single-cell waits are grouped per cell in a min-heap keyed by
    ``(threshold, park_seq)``; on each fire one value read per
    cell-with-waiters pops exactly the satisfied waiters.  Whole-array
    and slice waits sit in a side list and are evaluated per fire (their
    predicates read many cells anyway).  Cancelled waiters are
    tombstoned in place, mirroring the event heap.
    """

    __slots__ = ("count", "_cells", "_ranges", "_by_proc")

    def __init__(self) -> None:
        #: number of live declared waiters.
        self.count = 0
        # cell -> heap of (threshold, park_seq, entry); entry is the
        # mutable [process, spec, reason, park_seq, fire_count_at_park].
        self._cells: Dict[int, List[Tuple[float, int, List[Any]]]] = {}
        self._ranges: List[List[Any]] = []
        self._by_proc: Dict[int, List[Any]] = {}

    def add(
        self,
        process: Process,
        spec: WaitSpec,
        reason: str,
        park_seq: int,
        fire_count: int,
    ) -> None:
        """Park a declared waiter (predicate already evaluated false)."""
        entry: List[Any] = [process, spec, reason, park_seq, fire_count]
        self._by_proc[id(process)] = entry
        self.count += 1
        if spec.lo is not None and spec.hi is None:
            cell = self._cells.setdefault(spec.lo, [])
            heapq.heappush(cell, (float(spec.threshold), park_seq, entry))
        else:
            self._ranges.append(entry)

    def discard(self, process: Process) -> bool:
        """Detach a waiter in O(1) (cancellation); True if it was parked."""
        entry = self._by_proc.pop(id(process), None)
        if entry is None:
            return False
        entry[0] = None
        self.count -= 1
        return True

    def collect(
        self,
        source: Any,
        fire_count: int,
        out: List[Tuple[int, Process, int]],
    ) -> None:
        """Pop every satisfied waiter into ``out`` as (park_seq, process, polls).

        Checks each cell *with waiters* against the current value — not
        just a stored index — because host code may mutate the backing
        array directly between fires; the reference engine re-evaluates
        every predicate per fire and sees such writes, so the index must
        too.  ``polls`` is ``fire_count - fire_count_at_park``, exactly
        the per-fire increments the reference would have counted.
        """
        cells = self._cells
        for cell in list(cells):
            heap = cells[cell]
            # float() once: comparing Python floats against a NumPy
            # scalar would route every probe through ufunc dispatch.
            value = float(source[cell])
            while heap and heap[0][0] <= value:
                _thr, park_seq, entry = heapq.heappop(heap)
                process = entry[0]
                if process is None:
                    continue
                del self._by_proc[id(process)]
                self.count -= 1
                out.append((park_seq, process, fire_count - entry[4]))
            if not heap:
                del cells[cell]
        if self._ranges:
            still: List[List[Any]] = []
            for entry in self._ranges:
                process = entry[0]
                if process is None:
                    continue
                if entry[1].holds(source):
                    del self._by_proc[id(process)]
                    self.count -= 1
                    out.append((entry[3], process, fire_count - entry[4]))
                else:
                    still.append(entry)
            self._ranges = still

    def waiting(self) -> List[Tuple[str, str]]:
        """``(process_name, reason)`` pairs in park order (diagnostics)."""
        live = sorted(self._by_proc.values(), key=lambda e: e[3])
        return [(entry[0].name, entry[2]) for entry in live]


class FastEngine(Engine):
    """Drop-in engine: the reference heap plus epoch jump and flag index.

    Dispatch order, virtual timestamps, poll counts and tiebreak PRNG
    draws are bit-identical to :class:`~repro.simcore.engine.Engine`;
    only wall-clock cost differs.  The run loop, horizon push-back and
    deadlock check are the inherited :meth:`Engine.run`.  Select it with
    ``engine_mode="fast"`` (see :func:`make_engine`).
    """

    def __init__(
        self,
        max_events: int = 200_000_000,
        tiebreak: Optional[Callable[[], float]] = None,
    ):
        super().__init__(max_events=max_events, tiebreak=tiebreak)
        # Global park order: lets fire() merge declared and generic
        # waiters back into the reference engine's wake order.
        self._park_seq = 0

    def _step(self, process: Process, value: Any) -> None:
        """Resume ``process`` and keep resuming it while it only sleeps.

        A ``Delay`` whose wakeup precedes every other pending event (and
        the horizon) would be the very next dispatch anyway — so skip
        the heap round-trip and resume in place.  A timestamp tie goes
        to the heap head: the pending entry holds an older seq (or a
        smaller tiebreak priority), exactly as the reference heap orders
        it.  One tiebreak draw is burned per pumped event to keep the
        fuzzer's PRNG stream aligned with the reference engine.
        :meth:`Engine.run` has already counted the first resumption;
        each pumped one is counted here.
        """
        if not process.alive:
            raise SimulationError(f"resumed finished process {process.name!r}")
        if process.started_at is None:
            process.started_at = self.now
        process.state = ProcessState.RUNNING
        process.waiting_on = None
        process.blocked_on = None
        heap = self._heap
        until = self._until
        tiebreak = self._tiebreak
        max_events = self._max_events
        send = process.generator.send
        while True:
            try:
                effect = send(value)
            except StopIteration as stop:
                self._finish(process, stop.value)
                return
            except BaseException as exc:
                self._crash(process, exc)
            etype = type(effect)
            if etype is Delay:
                ns = effect.ns
                wake = self.now + (ns if type(ns) is int else int(round(ns)))
            elif etype is Fire:
                # A fire is a zero-delay reschedule: wake waiters first
                # (they draw their tiebreaks and take older seqs, so the
                # head comparison below defers to them on ties), then
                # treat the firing process like Delay(0).
                self.fire(effect.signal)
                wake = self.now
            else:
                self._dispatch(process, effect)
                return
            priority = tiebreak() if tiebreak is not None else 0.0
            if until is not None and wake > until:
                self._schedule_entry(process, wake, priority, None)
                return
            # Prune cancelled entries so the head is the next live event.
            while heap and heap[0][3] is None:
                heapq.heappop(heap)
            if heap:
                head = heap[0]
                head_when = head[0]
                if wake > head_when or (wake == head_when and priority >= head[1]):
                    # The pending entry dispatches first (older seq wins
                    # priority ties) — fall back to the heap.
                    self._schedule_entry(process, wake, priority, None)
                    return
            self.now = wake
            value = None
            self._events_dispatched += 1
            if self._events_dispatched > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a runaway simulation"
                )

    # -- effects and wakeups -------------------------------------------------

    def _dispatch(self, process: Process, effect: Effect) -> None:
        if isinstance(effect, WaitUntil):
            signal = effect.signal
            if effect.predicate():
                self._schedule(process, self.now, 0)
                return
            process.state = ProcessState.BLOCKED
            process.waiting_on = f"{effect.reason} (signal {signal.name!r})"
            process.blocked_on = signal
            self._park_seq += 1
            spec = effect.spec
            if spec is not None and signal.source is not None:
                index = signal._fast_index
                if index is None:
                    index = signal._fast_index = FlagIndex()
                index.add(
                    process, spec, effect.reason, self._park_seq, signal.fire_count
                )
            else:
                # Generic waiter; the fifth element is the park sequence
                # used to merge with declared wakeups in fire().
                signal._waiters.append(
                    [process, effect.predicate, effect.reason, 0, self._park_seq]
                )
            return
        super()._dispatch(process, effect)

    def fire(self, signal: Signal) -> int:
        """Fire ``signal``, waking satisfied waiters in reference order."""
        signal.fire_count += 1
        index = signal._fast_index
        waiters = signal._waiters
        if not waiters and (index is None or not index.count):
            return 0
        # (park_seq, process, polls) — park_seq restores the reference
        # engine's wake order across the generic/declared split.
        ready: List[Tuple[int, Process, int]] = []
        if waiters:
            still: List[list] = []
            for entry in waiters:
                entry[3] += 1
                if entry[1]():
                    ready.append((entry[4], entry[0], entry[3]))
                else:
                    still.append(entry)
            signal._waiters = still
        if index is not None and index.count:
            index.collect(signal.source, signal.fire_count, ready)
        if len(ready) > 1:
            ready.sort(key=lambda item: item[0])
        for _park, woken, polls in ready:
            woken.waiting_on = None
            woken.blocked_on = None
            self._schedule(woken, self.now, polls)
        return len(ready)
