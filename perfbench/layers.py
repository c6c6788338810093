"""The layer map and the traced run that attributes host time to it.

Every per-layer metric the benchmark prints is defined here, together
with the modules the layer covers, the end-to-end metric it should move
and the workload that shows the move (or should stay flat).  Later
changes cite these names when they claim a gain.

Attribution is cProfile self-time folded by module path.  Time spent in
a built-in function (``heapq``, ``sqlite3``, numpy ufuncs, ...) has no
module of its own, so it is charged to the layer of the Python function
that called it; everything else outside ``repro`` folds into ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> repro-relative module paths (a trailing "/" covers a package).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "simcore.engine": (
        "simcore/engine.py",
        "simcore/process.py",
        "simcore/effects.py",
        "simcore/signal.py",
        "simcore/resource.py",
    ),
    "simcore.fastpath": ("simcore/fastpath.py",),
    "simcore.trace": ("simcore/trace.py",),
    "gpu.context": (
        "gpu/context.py",
        "gpu/memory.py",
        "gpu/atomics.py",
        "gpu/warps.py",
        "gpu/shared.py",
    ),
    "gpu.device": (
        "gpu/device.py",
        "gpu/host.py",
        "gpu/scheduler.py",
        "gpu/kernel.py",
        "gpu/stream.py",
    ),
    "sync": ("sync/",),
    "algorithms": ("algorithms/",),
    "harness": ("harness/",),
    "parallel": ("parallel/",),
    "service": ("service/",),
}

#: single modules reported beside (and also inside) their layer.
SUBLAYER_MODULES: Dict[str, str] = {
    "parallel.journal": "parallel/journal.py",
    "parallel.cache": "parallel/cache.py",
}

_SIM = "fig11_micro and kernels_30"
_SERVICE_ONLY = "service_roundtrip / sim workloads flat"

#: per-layer metric -> (unit, better, end-to-end metric(s) it should
#: move, "workload that shows it / workload predicted flat").
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "simcore.engine.self_s": ("s", "lower", "wall_s", "fig11_micro / service_roundtrip"),
    "simcore.events": ("count", "lower", "wall_s", "fig11_micro / service_roundtrip"),
    "simcore.signal_fires": ("count", "lower", "wall_s", "fig11_micro / service_roundtrip"),
    "simcore.host_ns_per_event": ("ns", "lower", "wall_s", "fig11_micro / service_roundtrip"),
    "simcore.fastpath.self_s": (
        "s", "lower", "wall_fast_s only; wall_s must not move",
        "fig11_micro / kernels_30 diluted",
    ),
    "simcore.trace.self_s": ("s", "lower", "wall_s, wall_fast_s", f"{_SIM} / service_roundtrip"),
    "simcore.trace.spans": ("count", "lower", "wall_s, wall_fast_s", f"{_SIM} / service_roundtrip"),
    "gpu.context.self_s": ("s", "lower", "wall_s, wall_fast_s", "fig11_micro / kernels_30 diluted"),
    "gpu.context.atomic_ops": ("count", "lower", "wall_s, wall_fast_s", "fig11_micro / kernels_30 diluted"),
    "gpu.device.self_s": (
        "s", "lower", "wall_s", "kernels_30 (cpu-implicit) / fig11_micro mostly flat",
    ),
    "gpu.device.kernel_launches": (
        "count", "lower", "wall_s", "kernels_30 (cpu-implicit) / fig11_micro mostly flat",
    ),
    "sync.self_s": ("s", "lower", "wall_s, wall_fast_s", "fig11_micro / kernels_30 diluted"),
    "algorithms.self_s": ("s", "lower", "wall_s, wall_fast_s", "kernels_30 / fig11_micro flat"),
    "harness.self_s": ("s", "lower", "wall_s", _SIM),
    "harness.cells": ("count", "higher", "wall_s", _SIM),
    "parallel.self_s": ("s", "lower", "latency_p50_ms, jobs_per_s", _SERVICE_ONLY),
    "parallel.journal.self_s": ("s", "lower", "latency_p50_ms, jobs_per_s", _SERVICE_ONLY),
    "parallel.cache.self_s": ("s", "lower", "latency_p50_ms, jobs_per_s", _SERVICE_ONLY),
    "parallel.cache_hits": ("count", "higher", "latency_p50_ms, jobs_per_s", _SERVICE_ONLY),
    "parallel.cache_misses": ("count", "lower", "latency_p50_ms, jobs_per_s", _SERVICE_ONLY),
    "service.self_s": (
        "s", "lower", "latency_p50_ms, latency_p90_ms, jobs_per_s", _SERVICE_ONLY,
    ),
    "service.submit_ms": (
        "ms", "lower", "latency_p50_ms, latency_p90_ms, jobs_per_s", _SERVICE_ONLY,
    ),
    "service.status_ms": (
        "ms", "lower", "latency_p50_ms, latency_p90_ms, jobs_per_s", _SERVICE_ONLY,
    ),
    "service.result_ms": (
        "ms", "lower", "latency_p50_ms, latency_p90_ms, jobs_per_s", _SERVICE_ONLY,
    ),
    "service.dedup_ms": ("ms", "lower", "jobs_per_s", _SERVICE_ONLY),
    "service.status_polls": ("count/job", "lower", "latency_p50_ms, latency_p90_ms", _SERVICE_ONLY),
    "other.self_s": ("s", "lower", "-", "-"),
    "tracing.overhead": ("ratio", "lower", "-", "traced pass time over untraced pass time"),
}


def _repro_path(filename: str) -> Optional[str]:
    """``.../src/repro/gpu/host.py`` -> ``gpu/host.py`` (None outside repro)."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    return None if at < 0 else path[at + len("/repro/"):]


def layer_of(filename: str) -> str:
    """The layer a source file's self-time folds into."""
    path = _repro_path(filename)
    if path is not None:
        for layer, modules in LAYER_MODULES.items():
            for module in modules:
                if path == module or (module.endswith("/") and path.startswith(module)):
                    return layer
    return "other"


def fold_self_time(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time per layer (and sub-layer), in seconds."""
    out: Dict[str, float] = dict.fromkeys(
        [*LAYER_MODULES, "other", *SUBLAYER_MODULES], 0.0
    )

    def charge(filename: str, seconds: float) -> None:
        out[layer_of(filename)] += seconds
        path = _repro_path(filename)
        for sub, module in SUBLAYER_MODULES.items():
            if path == module:
                out[sub] += seconds

    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        if filename == "~" and callers:
            # A built-in: charge each caller's layer with the self-time
            # the built-in spent on its behalf (caller rows are
            # (calls, primitive calls, self-time, cumulative time)).
            for (caller_file, _l, _n), caller_row in callers.items():
                charge(caller_file, caller_row[2])
        else:
            charge(filename, tt)
    return out


def call_count(stats: pstats.Stats, module: str, function: str) -> int:
    """Exact number of calls of ``function`` defined in repro ``module``."""
    return sum(
        row[1]
        for (filename, _line, name), row in stats.stats.items()
        if name == function and _repro_path(filename) == module
    )


@dataclass
class TracedRun:
    """What :func:`traced_run` measured."""

    #: self-time per layer and sub-layer, seconds per traced pass.
    self_s: Dict[str, float]
    #: exact counters of one pass (identical in every pass).
    counters: Dict[str, int]
    #: median wall time of an untraced and of a traced pass, seconds.
    untraced_s: float
    traced_s: float

    @property
    def overhead(self) -> float:
        """Traced pass time over untraced pass time."""
        return self.traced_s / self.untraced_s


def traced_run(
    one_pass: Callable[[], Dict[str, int]],
    seconds: float,
    problems: List[str],
    profile_counters: Optional[Callable[[pstats.Stats], Dict[str, int]]] = None,
) -> TracedRun:
    """Alternate untraced and cProfile'd passes of one workload.

    ``one_pass()`` runs the workload's operations once and returns its
    exact counters; ``profile_counters(stats)`` adds counters only a
    traced pass's profile can see.  Runs at least one pass of each kind
    and keeps alternating while ``seconds`` remain.  A counter that
    differs between two passes is reported in ``problems``: the
    simulator is deterministic, so drift is a bug.
    """
    untraced: List[float] = []
    traced: List[float] = []
    folded: Dict[str, float] = {}
    counters: Dict[str, int] = {}

    def record(got: Dict[str, int]) -> None:
        for name, value in got.items():
            if name in counters and counters[name] != value:
                problems.append(
                    f"counter drift: {name} was {counters[name]}, then {value}"
                )
            counters.setdefault(name, value)

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        start = time.perf_counter()
        got = one_pass()
        untraced.append(time.perf_counter() - start)
        record(got)

        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            got = one_pass()
        finally:
            profile.disable()
        traced.append(time.perf_counter() - start)
        stats = pstats.Stats(profile)
        if profile_counters is not None:
            got.update(profile_counters(stats))
        record(got)
        for layer, spent in fold_self_time(stats).items():
            folded[layer] = folded.get(layer, 0.0) + spent

    return TracedRun(
        self_s={k: v / len(traced) for k, v in folded.items()},
        counters=counters,
        untraced_s=statistics.median(untraced),
        traced_s=statistics.median(traced),
    )


def per_layer_metrics(
    result: TracedRun, values: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from a traced run, plus ``values``.

    A metric the workload cannot observe reads 0.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for name, (unit, _better, _moves, _shows) in PER_LAYER.items():
        if name == "tracing.overhead":
            value: float = result.overhead
        elif name.endswith(".self_s"):
            value = result.self_s[name[: -len(".self_s")]]
        else:
            value = values.get(name, result.counters.get(name, 0))
        out[name] = (value, unit)
    return out
