"""The simulation workloads: the Fig. 11 micro sweep and the paper's
three kernels at 30 blocks.

Both time the same sweep under the reference engine (what users get by
default, ``wall_s``) and under the fast engine (``wall_fast_s``), in
pairs whose order the seed picks, and report medians.  Each sweep's
outputs are checked against values pinned here: the simulator is
deterministic, so a later change that only speeds it up must leave them
byte-identical.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List

from repro.algorithms import FFT, BitonicSort, MeanMicrobench, SmithWaterman
from repro.algorithms.base import VerificationError
from repro.errors import ReproError
from repro.gpu.presets import get_preset
from repro.harness import experiments
from repro.harness.phases import compute_only
from repro.harness.runner import RunResult, run
from repro.model.paper_data import HEADLINE
from repro.parallel import Executor
from repro.simcore import use_engine_mode

from clock import ScaledTimer
from layers import per_layer_metrics, traced_run
from outcome import Outcome, median_per_position, percentiles_ms

ENGINES = ("reference", "fast")

#: sweeps per engine a timed run makes at least, whatever its budget.
MIN_SWEEPS = 3

# -- fig11_micro -------------------------------------------------------------

#: a reduced Fig. 11 grid that ends at the paper's 30 blocks; 20 rounds
#: keep one sweep near a second while barrier traffic still dominates.
FIG11_ROUNDS = 20
FIG11_BLOCKS = (5, 10, 15, 20, 25, 30)
#: experiments.fig11's default strategy set: cpu-explicit plus the other five.
FIG11_STRATEGIES = ("cpu-explicit",) + experiments.ALL_STRATEGIES
#: sha256 of ``SweepResult.to_json()`` for this grid.
FIG11_SHA256 = "a48ba7ea2d4623ccc5096169f1ae852334fbc8e7f59f5eace02394db536a2a1d"
#: simulated cpu-implicit over lock-free sync time at N=30 (the paper's
#: 3.7x comes from 10 000 rounds; 20 rounds give 3.5625x).
FIG11_SYNC_RATIO = 3.5625

# -- kernels_30 ----------------------------------------------------------------

KERNEL_BLOCKS = 30
KERNEL_STRATEGIES = ("null", "cpu-implicit", "gpu-lockfree")
#: Smith-Waterman at 64x64 (127 rounds, not 2047) so one sweep takes
#: about a second; FFT and bitonic sort keep the calibrated sizes.
SWAT_LEN = 64
#: simulated total (ns) per "algorithm/strategy" cell; the data seed
#: changes the inputs but not the timing.
KERNEL_TOTALS: Dict[str, int] = {
    "fft/null": 384725,
    "fft/cpu-implicit": 468725,
    "fft/gpu-lockfree": 408725,
    "swat/null": 104230,
    "swat/cpu-implicit": 860230,
    "swat/gpu-lockfree": 307430,
    "bitonic/null": 436280,
    "bitonic/cpu-implicit": 1060280,
    "bitonic/gpu-lockfree": 604280,
}


def _kernel_factories(seed: int) -> Dict[str, Callable[[], Any]]:
    data_seed = seed % 2**32
    return {
        "fft": lambda: FFT(2**15, seed=data_seed),
        "swat": lambda: SmithWaterman(SWAT_LEN, SWAT_LEN, seed=data_seed),
        "bitonic": lambda: BitonicSort(2**14, seed=data_seed),
    }


def prepare(workload: str, seed: int) -> None:
    """Set-up a user pays before the first sweep: preset and inputs."""
    get_preset("gtx280")
    if workload == "fig11_micro":
        MeanMicrobench(rounds=FIG11_ROUNDS, num_blocks_hint=max(FIG11_BLOCKS))
    else:
        for make in _kernel_factories(seed).values():
            make()


# -- one sweep -------------------------------------------------------------------

def _fig11_sweep(outcome: Outcome, seed: int, timer: ScaledTimer) -> List[float]:
    """One sweep through experiments.fig11; returns each cell's scaled seconds."""
    seconds: List[float] = []

    def progress(done: int, total: int, cached: bool) -> None:
        seconds.append(timer.stop())
        timer.start()

    executor = Executor(jobs=1, progress=progress)
    cells = len(FIG11_BLOCKS) * (1 + len(FIG11_STRATEGIES))
    outcome.attempted += cells
    timer.start()
    try:
        sweep = experiments.fig11(
            rounds=FIG11_ROUNDS,
            blocks=FIG11_BLOCKS,
            strategies=FIG11_STRATEGIES,
            executor=executor,
        )
    except (ReproError, VerificationError) as exc:
        outcome.fail(cells, f"fig11 sweep raised {exc!r}")
        return []
    _check_fig11(sweep, outcome, cells)
    return seconds


def _check_fig11(sweep: experiments.SweepResult, outcome: Outcome, cells: int) -> None:
    digest = hashlib.sha256(sweep.to_json().encode("utf-8")).hexdigest()
    if digest != FIG11_SHA256:
        outcome.fail(cells, f"fig11 sweep sha256 {digest} != pinned {FIG11_SHA256}")
    ratio = _sync_ratio(sweep)
    if ratio != FIG11_SYNC_RATIO:
        outcome.fail(0, f"fig11 sync ratio {ratio!r} != pinned {FIG11_SYNC_RATIO!r}")


def _sync_ratio(sweep: experiments.SweepResult) -> float:
    at = sweep.blocks.index(30)
    return (
        sweep.sync_series("cpu-implicit")[at] / sweep.sync_series("gpu-lockfree")[at]
    )


def _kernel_cell(
    strategy: str, make: Callable[[], Any], keep_device: bool = False
) -> RunResult:
    algorithm = make()
    if strategy != "null":
        return run(algorithm, strategy, KERNEL_BLOCKS, keep_device=keep_device)
    if keep_device:  # compute_only, keeping the device for its counters
        return run(
            algorithm, "null", KERNEL_BLOCKS,
            verify=False, monitor_races=False, keep_device=True,
        )
    return compute_only(algorithm, KERNEL_BLOCKS)


def _check_kernel(name: str, strategy: str, result: RunResult, outcome: Outcome) -> None:
    key = f"{name}/{strategy}"
    if result.total_ns != KERNEL_TOTALS[key]:
        outcome.fail(1, f"{key}: total {result.total_ns} ns != pinned {KERNEL_TOTALS[key]}")
    elif result.verified is not (None if strategy == "null" else True):
        outcome.fail(1, f"{key}: verified={result.verified}")


def _kernels_sweep(outcome: Outcome, seed: int, timer: ScaledTimer) -> List[float]:
    """One pass over the nine cells; returns each cell's scaled seconds."""
    cells: List[float] = []
    for name, make in _kernel_factories(seed).items():
        for strategy in KERNEL_STRATEGIES:
            outcome.attempted += 1
            timer.start()
            try:
                result = _kernel_cell(strategy, make)
            except (ReproError, VerificationError) as exc:
                outcome.fail(1, f"{name}/{strategy} raised {exc!r}")
                continue
            cells.append(timer.stop())
            _check_kernel(name, strategy, result, outcome)
    return cells


# -- timed run -------------------------------------------------------------------

def timed(workload: str, seed: int, seconds: float, outcome: Outcome) -> None:
    """Alternate reference and fast sweeps for ``seconds``.

    Cells are timed in scaled seconds (see ``clock.py``), and a sweep's
    time is the sum over its cells of each cell's median across the
    sweeps, so one disturbed cell does not move it.
    """
    sweep_fn = _fig11_sweep if workload == "fig11_micro" else _kernels_sweep
    order = ENGINES if seed % 2 == 0 else ENGINES[::-1]
    timer = ScaledTimer()
    sweeps: Dict[str, List[List[float]]] = {mode: [] for mode in ENGINES}
    deadline = time.perf_counter() + seconds
    while len(sweeps["reference"]) < MIN_SWEEPS or time.perf_counter() < deadline:
        for mode in order:
            with use_engine_mode(mode):
                sweeps[mode].append(sweep_fn(outcome, seed, timer))
        if not outcome.correct:
            return
    cells = {mode: median_per_position(sweeps[mode]) for mode in ENGINES}
    p50, p90 = percentiles_ms(cells["reference"])
    outcome.set_end_to_end(
        wall_s=sum(cells["reference"]),
        wall_fast_s=sum(cells["fast"]),
        latency_p50_ms=p50,
        latency_p90_ms=p90,
        jobs_per_s=len(cells["reference"]) / sum(cells["reference"]),
    )
    outcome.notes.append(
        f"{len(sweeps['reference'])} sweeps per engine; latency percentiles "
        f"over the {len(cells['reference'])} cells' median reference-engine times"
    )
    if workload == "fig11_micro":
        outcome.notes.append(
            f"simulated sync ratio lock-free vs cpu-implicit at N=30: "
            f"{FIG11_SYNC_RATIO:.4f}x (paper: "
            f"{HEADLINE['micro_lockfree_vs_implicit'].value}x)"
        )


# -- traced run ------------------------------------------------------------------

def _device_counters(result: RunResult) -> Dict[str, int]:
    device = result.device
    assert device is not None
    return {
        "simcore.events": device.engine.events_dispatched,
        "simcore.signal_fires": sum(a.signal.fire_count for a in device.memory),
        "simcore.trace.spans": len(device.trace),
        "gpu.context.atomic_ops": device.atomics.ops,
        "gpu.device.kernel_launches": result.kernel_launches,
        "harness.cells": 1,
    }


def _fig11_cells(outcome: Outcome, seed: int) -> List[RunResult]:
    """The fig11 sweep cell by cell, devices kept, checked like the sweep."""
    results: List[RunResult] = []
    for strategy in ("null",) + FIG11_STRATEGIES:
        for blocks in FIG11_BLOCKS:
            micro = MeanMicrobench(rounds=FIG11_ROUNDS, num_blocks_hint=max(FIG11_BLOCKS))
            if strategy == "null":
                results.append(run(
                    micro, "null", blocks,
                    verify=False, monitor_races=False, keep_device=True,
                ))
            else:
                results.append(run(micro, strategy, blocks, keep_device=True))
    sweep = experiments.SweepResult(algorithm="micro", blocks=list(FIG11_BLOCKS))
    totals = [r.total_ns for r in results]
    sweep.nulls = totals[: len(FIG11_BLOCKS)]
    for j, strategy in enumerate(FIG11_STRATEGIES, start=1):
        sweep.totals[strategy] = totals[j * len(FIG11_BLOCKS):(j + 1) * len(FIG11_BLOCKS)]
    outcome.attempted += len(results)
    _check_fig11(sweep, outcome, len(results))
    return results


def _kernel_cells(outcome: Outcome, seed: int) -> List[RunResult]:
    results: List[RunResult] = []
    for name, make in _kernel_factories(seed).items():
        for strategy in KERNEL_STRATEGIES:
            outcome.attempted += 1
            result = _kernel_cell(strategy, make, keep_device=True)
            _check_kernel(name, strategy, result, outcome)
            results.append(result)
    return results


def traced(workload: str, seed: int, seconds: float, outcome: Outcome) -> None:
    """Untraced and profiled passes over every cell under both engines."""
    cells_fn = _fig11_cells if workload == "fig11_micro" else _kernel_cells

    def one_pass() -> Dict[str, int]:
        per_engine: Dict[str, Dict[str, int]] = {}
        for mode in ENGINES:
            counters: Dict[str, int] = {}
            with use_engine_mode(mode):
                for result in cells_fn(outcome, seed):
                    for name, value in _device_counters(result).items():
                        counters[name] = counters.get(name, 0) + value
            per_engine[mode] = counters
        if per_engine["reference"] != per_engine["fast"]:
            outcome.fail(0, f"engines disagree on counters: {per_engine}")
        return per_engine["reference"]

    result = traced_run(one_pass, seconds, outcome.problems)
    events = result.counters["simcore.events"]
    outcome.metrics.update(per_layer_metrics(result, {
        "simcore.host_ns_per_event": result.untraced_s * 1e9 / (len(ENGINES) * events),
    }))
