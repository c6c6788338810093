"""Steady-state fast-forward: simulate a prefix, prove the period, splice.

Once its barrier settles, the micro-benchmark repeats itself: every round
replays the one before, one period later.  For an algorithm that opts in
(:attr:`~repro.algorithms.base.RoundAlgorithm.skip_rounds`) the runner
simulates only the first :data:`WINDOW` rounds under a
:class:`PeriodWatch`, which snapshots the device whenever block 0 starts
one of the last three of them.  :meth:`PeriodWatch.period` accepts the
prefix only if the two periods between those boundaries agree on

* the span stream, the second equal to the first shifted by one period
  and one round (host-mode kernel names ``micro:r{r}`` advance too);
* the per-period counters: events dispatched, memory-signal fires,
  atomics, stores and loads per array, and kernels completed;
* every global-memory cell, which must be constant, or affine in the
  round index if it holds integers.

:func:`splice` then moves the device past the rounds it did not
simulate: the clock, every counter and every affine cell advance by the
skipped periods, and the trace repeats its last period lazily
(:meth:`~repro.simcore.trace.Trace.splice`).  The rounds the prefix
did not reach are inserted before its last round boundary, so the
prefix's ending (the final barrier, the drain, the host's closing
synchronize) becomes the spliced run's ending.

A host-mode strategy launches one kernel per round, and a pipelined host
runs ahead of the device: its launch calls all fall in the first rounds'
time, not in the kernel's period.  In host mode the events of a round
are therefore counted per launch, through the generators, rather than
per period.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Generator, List, Optional, Tuple

import numpy as np

from repro.gpu.device import Device
from repro.simcore.effects import Spawn
from repro.simcore.trace import Relabel, shifted_row

#: internal to the runner: the only public piece is the opt-in hook,
#: :attr:`repro.algorithms.base.RoundAlgorithm.skip_rounds`.
__all__: List[str] = []

#: rounds simulated before splicing; the last three start the boundaries
#: of the two periods compared.  Four misses the settling of some grids
#: (dual_gpu simple and tree barriers, gtx280 tree-2 at 7 blocks).
WINDOW = 5


class NoPeriod(Exception):
    """The prefix does not prove a steady period; the message says why."""


@dataclass(frozen=True)
class _Boundary:
    """The device's observable state when block 0 starts a round."""

    now: int
    events: int
    spans: int
    atomics: int
    kernels: int
    arrays: Tuple[str, ...]
    counters: Tuple[Tuple[int, int, int], ...]  #: (stores, loads, fires) per array
    cells: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Period:
    """What one steady-state round adds to a run."""

    ns: int
    spans: int  #: spans recorded per period
    at: int  #: trace length at the last boundary (where copies go)
    events: int
    atomics: int
    kernels: int
    counters: Tuple[Tuple[int, int, int], ...]
    slopes: Tuple[Optional[np.ndarray], ...]  #: per array; None = constant
    relabel: Optional[Relabel]  #: renames owners as rounds advance


class PeriodWatch:
    """Round-boundary snapshots of a prefix run, and the period they prove."""

    def __init__(self, device: Device, host_mode: bool, relabel: Optional[Relabel]):
        self._device = device
        self._host_mode = host_mode
        self._relabel = relabel
        self._marks: List[_Boundary] = []
        #: host mode: the launch the host loop is issuing (-1 outside it).
        self.launch = -1
        self._launch_events: DefaultDict[int, int] = defaultdict(int)

    def tick(self, round_idx: int) -> None:
        """Block 0 starts ``round_idx``: snapshot the last three boundaries."""
        if round_idx < WINDOW - 3:
            return
        device = self._device
        arrays = list(device.memory)
        self._marks.append(_Boundary(
            now=device.engine.now,
            events=device.engine.events_dispatched,
            spans=len(device.trace),
            atomics=device.atomics.ops,
            kernels=device.kernels_completed,
            arrays=tuple(a.name for a in arrays),
            counters=tuple((a.stores, a.loads, a.signal.fire_count) for a in arrays),
            cells=tuple(a.data.copy() for a in arrays),
        ))

    def counted(
        self, gen: Generator[Any, Any, Any], launch: Optional[int] = None
    ) -> Generator[Any, Any, Any]:
        """``gen`` with every resumption counted against a launch.

        The host program is wrapped with ``launch=None`` and counts
        against :attr:`launch` as it moves; every process it spawns (the
        command transfer, the kernel and, through the kernel, its
        blocks) counts against the launch that spawned it.
        """
        value = None
        while True:
            key = self.launch if launch is None else launch
            self._launch_events[key] += 1
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(effect, Spawn):
                effect = Spawn(self.counted(effect.generator, key), effect.name)
            value = yield effect

    def period(self) -> Period:
        """The steady period the prefix proves; raises :class:`NoPeriod`."""
        if len(self._marks) != 3:
            raise NoPeriod("the prefix did not reach its last round")
        first, mid, last = self._marks
        ns = last.now - mid.now
        if ns != mid.now - first.now:
            raise NoPeriod(f"period differs ({mid.now - first.now} ns vs {ns} ns)")
        self._compare_spans(first.spans, mid.spans, last.spans, ns)
        for name in ("events", "atomics", "kernels"):
            a = getattr(mid, name) - getattr(first, name)
            b = getattr(last, name) - getattr(mid, name)
            if a != b:
                raise NoPeriod(f"{name} per period differ ({a} vs {b})")
        if not first.arrays == mid.arrays == last.arrays:
            raise NoPeriod("global memory was allocated during the prefix")
        counters = []
        for name, c0, c1, c2 in zip(
            last.arrays, first.counters, mid.counters, last.counters
        ):
            a = tuple(y - x for x, y in zip(c0, c1))
            b = tuple(y - x for x, y in zip(c1, c2))
            if a != b:
                raise NoPeriod(
                    f"{name} stores/loads/fires per period differ ({a} vs {b})"
                )
            counters.append(b)
        slopes = tuple(
            _slope(name, v0, v1, v2)
            for name, v0, v1, v2 in zip(last.arrays, first.cells, mid.cells, last.cells)
        )
        if self._host_mode:
            a, b = (self._launch_events[WINDOW - k] for k in (3, 2))
            if a != b:
                raise NoPeriod(f"events per launch differ ({a} vs {b})")
            events = b
        else:
            events = last.events - mid.events
        return Period(
            ns=ns,
            spans=last.spans - mid.spans,
            at=last.spans,
            events=events,
            atomics=last.atomics - mid.atomics,
            kernels=last.kernels - mid.kernels,
            counters=tuple(counters),
            slopes=slopes,
            relabel=self._relabel,
        )

    def _compare_spans(self, lo: int, mid: int, hi: int, ns: int) -> None:
        if mid - lo != hi - mid:
            raise NoPeriod(f"spans per period differ ({mid - lo} vs {hi - mid})")
        rows = self._device.trace.rows
        for i, (before, after) in enumerate(zip(rows[lo:mid], rows[mid:hi])):
            if shifted_row(before, ns, 1, self._relabel) != after:
                raise NoPeriod(f"span {i} differs between periods")


def _slope(
    name: str, v0: np.ndarray, v1: np.ndarray, v2: np.ndarray
) -> Optional[np.ndarray]:
    """Per-period change of array ``name`` over two periods (None: constant).

    Integer arrays may move by the same amount each period; any other
    change raises :class:`NoPeriod` naming the first offending cell.
    """
    if np.array_equal(v0, v1) and np.array_equal(v1, v2):
        return None
    if np.issubdtype(v1.dtype, np.integer):
        step = v2 - v1
        bad = np.flatnonzero(step != v1 - v0)
        if bad.size == 0:
            return step
    else:
        bad = np.flatnonzero((v0 != v1) | (v1 != v2))
    raise NoPeriod(f"cell {name}[{bad[0]}] not affine")


def splice(device: Device, period: Period, skipped: int) -> None:
    """Advance ``device`` by ``skipped`` periods it did not simulate."""
    engine = device.engine
    engine.now += skipped * period.ns
    # The engine's own dispatch counter: the skipped rounds' events
    # happened, they were only not replayed one by one.
    engine._events_dispatched += skipped * period.events
    device.atomics.ops += skipped * period.atomics
    device.kernels_completed += skipped * period.kernels
    for array, (stores, loads, fires), slope in zip(
        device.memory, period.counters, period.slopes
    ):
        array.stores += skipped * stores
        array.loads += skipped * loads
        array.signal.fire_count += skipped * fires
        if slope is not None:
            array.data += skipped * slope
    device.trace.splice(period.at, period.spans, skipped, period.ns, period.relabel)
