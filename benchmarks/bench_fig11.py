"""Fig. 11 — micro-benchmark execution time vs number of blocks.

All six strategies over the full 1–30 block grid.  Paper shapes: CPU
explicit ≫ CPU implicit (both flat); GPU simple linear, crossing
implicit between 23 and 24 blocks; 2-level tree beats simple from ~11
blocks; lock-free flat and cheapest at scale.
"""

import time

from benchmarks.conftest import OUT_DIR, save_report
from repro.harness import experiments, report
from repro.harness.perf import compare, micro_cell, render_bench
from repro.simcore import use_engine_mode

ROUNDS = 200  # paper: 10 000; per-round quantities are unchanged


def _check_shape(sweep) -> None:
    b = sweep.blocks
    sync = {s: sweep.sync_series(s) for s in sweep.totals}
    at = lambda s, n: sync[s][b.index(n)]  # noqa: E731

    # Explicit dominates implicit everywhere.
    assert all(e > i for e, i in zip(sync["cpu-explicit"], sync["cpu-implicit"]))
    # Simple is strictly increasing and crosses implicit between 23 and 24.
    simple = sync["gpu-simple"]
    assert all(x < y for x, y in zip(simple, simple[1:]))
    assert at("gpu-simple", 23) < at("cpu-implicit", 23)
    assert at("gpu-simple", 24) > at("cpu-implicit", 24)
    # 2-level tree crossover with simple near 11 blocks (paper: 11; our
    # measured crossover is 10 because unbalanced groups let early
    # representatives overlap their atomics and beat the Eq. 7 bound —
    # the Eq. 7 *model* crossover is exactly 11, see tests/model).
    assert at("gpu-tree-2", 9) > at("gpu-simple", 9)
    assert at("gpu-tree-2", 12) < at("gpu-simple", 12)
    # Lock-free is flat and the cheapest strategy from 6 blocks up.
    lockfree = sync["gpu-lockfree"]
    assert max(lockfree) == min(lockfree)
    for n in range(6, 31):
        for strat in sweep.totals:
            if strat != "gpu-lockfree":
                assert at("gpu-lockfree", n) < at(strat, n), (strat, n)


def test_fig11(benchmark):
    sweep = benchmark.pedantic(
        experiments.fig11, kwargs={"rounds": ROUNDS}, rounds=1, iterations=1
    )
    _check_shape(sweep)
    save_report(
        "fig11",
        report.render_sweep_totals(sweep, f"Fig. 11 (micro, {ROUNDS} rounds)")
        + "\n\n"
        + report.render_sweep_sync(sweep, f"Fig. 11 sync time (micro, {ROUNDS} rounds)"),
    )


def test_fig11_engine_modes(benchmark):
    """Fig. 11 under both event cores: identical sweeps, faster clock.

    Runs a reduced Fig. 11 grid under the reference engine and the fast
    engine (docs/engine.md) and demands byte-identical ``to_json``
    output — the driver-level differential check.  Per-strategy cell
    timings at the paper's full 30-block grid are persisted as
    schema-versioned ``benchmarks/out/BENCH_fig11.json`` alongside the
    whole-sweep wall-clock for both modes.
    """
    grid = {"rounds": 50, "blocks": [1, 8, 16, 24, 30]}

    def sweep_both():
        out = {}
        for mode in ("reference", "fast"):
            with use_engine_mode(mode):
                start = time.perf_counter()
                sweep = experiments.fig11(**grid)
                out[mode] = (time.perf_counter() - start, sweep)
        return out

    pair = benchmark.pedantic(sweep_both, rounds=1, iterations=1)
    ref_seconds, ref_sweep = pair["reference"]
    fast_seconds, fast_sweep = pair["fast"]
    assert ref_sweep.to_json() == fast_sweep.to_json()

    workloads = {
        f"{strategy}@30": compare(
            micro_cell(strategy, 30, grid["rounds"]), repeats=2
        )
        for strategy in ("gpu-simple", "gpu-tree-2", "gpu-lockfree")
    }
    workloads["fig11_sweep"] = {
        "reference": {
            "engine_mode": "reference",
            "seconds": round(ref_seconds, 6),
            "cells": len(ref_sweep.blocks) * (len(ref_sweep.totals) + 1),
        },
        "fast": {
            "engine_mode": "fast",
            "seconds": round(fast_seconds, 6),
            "cells": len(fast_sweep.blocks) * (len(fast_sweep.totals) + 1),
        },
        "speedup": round(ref_seconds / fast_seconds, 2),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_fig11.json"
    path.write_text(render_bench("fig11", workloads) + "\n")
