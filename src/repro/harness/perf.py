"""Engine throughput workloads and the ``BENCH_*.json`` protocol.

The fast-path engine (:mod:`repro.simcore.fastpath`) is sold on one
number: events simulated per second of host wall-clock.  This module
owns everything needed to produce and consume that number honestly:

* canonical engine-level workloads (:data:`ENGINE_WORKLOADS`) that pin
  down the shapes the two engines differ on — a pure ``Delay`` chain
  (the epoch-jump pump), per-round barrier storms (fires and declared
  waits interleaved across many processes) and the paper's spin wall,
  many parked spinners polled by a trickle of stores (the flag index);
* :func:`micro_cell`, one Fig. 11 cell through the full device stack;
* :func:`measure` / :func:`compare`, which time a :data:`Runnable`
  under an engine mode and refuse to report a comparison whose
  observables (event count, final virtual clock) diverge between modes
  — a benchmark of two engines that did different work is meaningless;
* :func:`render_bench` / :func:`load_bench`, the schema-versioned JSON
  envelope (shared with every other batch result — see
  :mod:`repro.serialization`) behind ``benchmarks/out/BENCH_engine.json``
  and ``BENCH_fig11.json``, which CI's ``engine-equiv`` job reads to
  fail the build when the fast engine stops being fast.

Wall-clock numbers vary run to run; the JSON layout does not.  Keys are
sorted, floats are rounded to fixed precision, and everything else
(events, clocks, parameters) is exactly reproducible.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.serialization import dump_result, parse_result, require
from repro.simcore import (
    Delay,
    Engine,
    Fire,
    Signal,
    WaitSpec,
    WaitUntil,
    make_engine,
)

__all__ = [
    "BENCH_KIND",
    "ENGINE_WORKLOADS",
    "compare",
    "load_bench",
    "measure",
    "micro_cell",
    "render_bench",
    "workload_barrier_storm",
    "workload_pingpong",
    "workload_spin_wall",
]

#: ``kind`` tag of the bench envelope (``{"schema": .., "kind": "bench"}``).
BENCH_KIND = "bench"

#: one timed unit of work: given an engine mode, run it to completion
#: and return the engine that ran it (its event count and final clock
#: are what :func:`compare` checks across modes).
Runnable = Callable[[str], Engine]


# ---------------------------------------------------------------------------
# Canonical workloads
# ---------------------------------------------------------------------------

def _on_fresh_engine(build: Callable[[Engine], None]) -> Runnable:
    """A runnable that spawns ``build``'s processes on a new engine."""

    def run(mode: str) -> Engine:
        engine = make_engine(mode)
        build(engine)
        engine.run()
        return engine

    return run


def workload_pingpong(n_events: int = 100_000) -> Runnable:
    """One process running a pure ``Delay`` chain (the epoch-jump pump)."""

    def build(engine: Engine) -> None:
        def proc():
            for _ in range(n_events):
                yield Delay(10)

        engine.spawn(proc(), "pingpong")

    return _on_fresh_engine(build)


def workload_spin_wall(
    spinners: int = 200, stores: int = 2_000
) -> Runnable:
    """The paper's shape: ``spinners`` processes parked on one mutex cell
    while ``stores`` increments trickle in.

    The reference engine re-evaluates every parked predicate on every
    store — O(spinners x stores) polls; the flag index answers each
    store with one cell read, so this is the headline fast-path win.
    """

    def build(engine: Engine) -> None:
        data = np.zeros(1, dtype=np.int64)
        signal = Signal("mutex", source=data)

        def spinner() -> Any:
            yield WaitUntil(
                signal,
                lambda: bool(data[0] >= stores),
                f"mutex>={stores}",
                spec=WaitSpec(stores, lo=0),
            )
            yield Delay(5)

        def storer() -> Any:
            for _ in range(stores):
                yield Delay(3)
                data[0] += 1
                yield Fire(signal)

        for i in range(spinners):
            engine.spawn(spinner(), f"spin{i}")
        engine.spawn(storer(), "storer")

    return _on_fresh_engine(build)


def workload_barrier_storm(
    blocks: int = 64, rounds: int = 100
) -> Runnable:
    """gpu-simple's accumulating barrier at engine level: every process
    bumps the shared cell, fires, and spins for ``round * blocks``.

    Each round mixes short ``Delay`` hops, ``blocks`` fires and a
    same-timestamp wake burst of every declared waiter, so the pump
    rarely runs far and the flag index wakes a whole barrier at once.
    """

    def build(engine: Engine) -> None:
        data = np.zeros(1, dtype=np.int64)
        signal = Signal("mutex", source=data)

        def block(i: int) -> Any:
            for r in range(1, rounds + 1):
                yield Delay(7 + i % 5)
                data[0] += 1
                yield Fire(signal)
                goal = r * blocks
                yield WaitUntil(
                    signal,
                    lambda g=goal: bool(data[0] >= g),
                    f"mutex>={goal}",
                    spec=WaitSpec(goal, lo=0),
                )

        for i in range(blocks):
            engine.spawn(block(i), f"blk{i}")

    return _on_fresh_engine(build)


#: name -> runnable for the standard bench set.
ENGINE_WORKLOADS: Dict[str, Runnable] = {
    "pingpong": workload_pingpong(),
    "barrier_storm": workload_barrier_storm(),
    "spin_wall": workload_spin_wall(),
}


def micro_cell(strategy: str, num_blocks: int, rounds: int) -> Runnable:
    """One Fig. 11 cell through the full device stack, as a runnable.

    Runs the micro-benchmark under ``strategy`` and returns the run's
    device engine.
    """

    def run(mode: str) -> Engine:
        # Late imports: repro.harness re-exports this module, so importing
        # the runner at module load would cycle.
        from repro.algorithms import MeanMicrobench
        from repro.harness.runner import run as run_config

        result = run_config(
            MeanMicrobench(rounds=rounds),
            strategy,
            num_blocks,
            keep_device=True,
            engine_mode=mode,
        )
        assert result.device is not None
        return result.device.engine

    return run


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(run: Runnable, mode: str, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` wall-clock for ``run`` under one engine mode.

    Returns ``events`` (dispatched), ``now_ns`` (final virtual clock),
    ``seconds`` and ``events_per_sec``.  Best-of — not mean — because
    the quantity of interest is the engine's cost, and every source of
    host noise (GC, scheduling) only ever adds time.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    best: Optional[float] = None
    events = now_ns = 0
    for _ in range(repeats):
        start = time.perf_counter()
        engine = run(mode)
        elapsed = time.perf_counter() - start
        events, now_ns = engine.events_dispatched, engine.now
        if events == 0:
            # Timing an engine that did nothing measures nothing.
            raise ExperimentError("runnable dispatched no events")
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return {
        "engine_mode": mode,
        "events": events,
        "now_ns": now_ns,
        "seconds": round(best, 6),
        "events_per_sec": round(events / best, 1) if best > 0 else 0.0,
    }


def compare(
    run: Runnable,
    modes: Sequence[str] = ("reference", "fast"),
    repeats: int = 3,
) -> Dict[str, Any]:
    """:func:`measure` ``run`` under every mode, plus the fast/ref speedup.

    Refuses (typed :class:`~repro.errors.ExperimentError`) when the
    modes disagree on event count or final clock — a throughput
    comparison is only meaningful between engines that provably did the
    same work.
    """
    results = {mode: measure(run, mode, repeats) for mode in modes}
    baseline = results[modes[0]]
    for mode in modes[1:]:
        other = results[mode]
        if (other["events"], other["now_ns"]) != (
            baseline["events"],
            baseline["now_ns"],
        ):
            raise ExperimentError(
                f"engine modes diverged: "
                f"{modes[0]} dispatched {baseline['events']} events to "
                f"t={baseline['now_ns']}, {mode} dispatched "
                f"{other['events']} to t={other['now_ns']}"
            )
    out: Dict[str, Any] = dict(results)
    if "reference" in results and "fast" in results:
        ref_s = results["reference"]["seconds"]
        fast_s = results["fast"]["seconds"]
        out["speedup"] = round(ref_s / fast_s, 2) if fast_s > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# The BENCH_*.json envelope
# ---------------------------------------------------------------------------

def render_bench(name: str, workloads: Dict[str, Dict[str, Any]]) -> str:
    """Render a bench report as versioned, deterministic JSON.

    ``workloads`` maps workload name to a :func:`compare` result
    (or any dict of per-mode measurements).
    """
    return dump_result(BENCH_KIND, {"bench": name, "workloads": workloads})


def load_bench(text: str, *, source: str = "<string>") -> Dict[str, Any]:
    """Parse :func:`render_bench` output; typed errors name ``source``."""
    payload = parse_result(text, kind=BENCH_KIND, source=source)
    require(payload, "bench", source)
    require(payload, "workloads", source)
    return payload
