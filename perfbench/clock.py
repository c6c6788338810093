"""Host time scaled to a fixed host speed.

On a shared 2-vCPU host the CPU's speed swings by tens of percent from
one second to the next, because other tenants share the physical cores;
raw wall-clock medians of two runs a minute apart differ by 20-30 %.
So every timed operation is bracketed by a short, fixed, pure-Python
probe (stdlib only, so no change to the repository can speed it up),
and the operation's time is divided by the probes' mean time and
multiplied by :data:`PROBE_REF_S`: the result is the operation's
duration in seconds of a host on which the probe takes
``PROBE_REF_S``.  A change that makes the program faster moves it; a
noisy neighbour mostly does not.  Work that also opens SQLite
connections, commits and starts threads is timed against
:func:`io_probe`, which adds those to the probe.
"""

from __future__ import annotations

import heapq
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable

#: the probe's duration on the reference host (a quiet 2-vCPU x86-64
#: VM, CPython 3.11); it only sets the scale of reported seconds.
PROBE_REF_S = 0.0025


def probe() -> float:
    """Seconds one fixed discrete-event-style loop takes right now.

    It mixes what the simulator's host time is made of: generator
    resumption, heap pushes and pops, dict lookups and integer work.
    """
    def process(i: int):
        acc = 0
        for r in range(40):
            acc += (i * r) % 7
            yield 3 + (acc & 3)

    start = time.perf_counter()
    processes = {i: process(i) for i in range(60)}
    heap = [(0, i, i) for i in range(60)]
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        now, _, i = heapq.heappop(heap)
        try:
            delay = next(processes[i])
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, i))
        seq += 1
    return time.perf_counter() - start


class ScaledTimer:
    """Times consecutive operations in reference-host seconds.

    ``start()`` before an operation, ``stop()`` after it; the probe run
    by ``stop()`` also serves as the next operation's leading probe.
    """

    def __init__(
        self, probe_fn: Callable[[], float] = probe, ref_s: float = PROBE_REF_S
    ) -> None:
        self._probe = probe_fn
        self._ref_s = ref_s
        self._before = self._probe()
        self._start = time.perf_counter()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Scaled seconds since :meth:`start`."""
        raw = time.perf_counter() - self._start
        after = self._probe()
        scaled = raw * self._ref_s * 2.0 / (self._before + after)
        self._before = after
        return scaled


def io_probe(directory: Path) -> Callable[[], float]:
    """A probe that adds what the job table's host time is made of:
    SQLite connections and WAL commits to a file under ``directory``,
    and thread start-ups, beside :func:`probe`'s interpreter work."""
    path = directory / "probe.sqlite3"

    def run() -> float:
        start = time.perf_counter()
        probe()
        for value in range(3):
            conn = sqlite3.connect(path, isolation_level=None)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("CREATE TABLE IF NOT EXISTS t (k INTEGER PRIMARY KEY, v INTEGER)")
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("INSERT OR REPLACE INTO t VALUES (1, ?)", (value,))
                conn.execute("COMMIT")
            finally:
                conn.close()
            thread = threading.Thread(target=int)
            thread.start()
            thread.join()
        return time.perf_counter() - start

    return run
