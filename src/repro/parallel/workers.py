"""Registered worker functions the executor fans out.

Workers are module-level functions (picklable by reference) taking one
plain-dict payload and returning a plain JSON-serializable value — the
contract the :class:`~repro.parallel.cache.ResultCache` needs.  Each
payload fully determines the task: algorithm *spec* (not instance),
strategy name, device-config dict, seeds.  Workers rebuild the seeded
algorithm fresh, which is bit-identical to reusing one instance because
every run :meth:`~repro.algorithms.base.RoundAlgorithm.reset`\\ s it
anyway and all inputs derive from fixed seeds.

Registry:

* ``run-total`` — one (algorithm × strategy × grid) simulation; returns
  its ``total_ns``.  ``strategy="null"`` is the compute-only baseline.
* ``chaos-plan`` — one seeded fault plan under the resilient runtime;
  returns a :class:`~repro.faults.chaos.ChaosRunRecord` as a dict.
* ``sanitize-schedule`` — one fuzzed sanitizer schedule; returns its
  findings and event counts as a dict.
* ``sleep`` — diagnostic/self-test worker: sleeps then echoes a value
  (used by the executor's own cache, ordering and interruption tests).
* ``fragile`` — diagnostic worker that kills its own process on demand
  (used by the supervisor's crash-recovery and poison tests; pool mode
  only — inline it would kill the calling process).
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional

from repro.errors import ExecutorError, ExperimentError
from repro.serialization import device_config_from_dict

__all__ = ["WORKERS", "build_algorithm", "dispatch", "resolve", "worker"]

WORKERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def worker(name: str) -> Callable:
    """Register a worker function under ``name``."""

    def register(fn: Callable[[Dict[str, Any]], Any]) -> Callable:
        WORKERS[name] = fn
        return fn

    return register


def resolve(name: str) -> Callable[[Dict[str, Any]], Any]:
    """Look up a worker, or fail with a typed error."""
    try:
        return WORKERS[name]
    except KeyError:
        raise ExecutorError(
            f"unknown worker {name!r}; registered: "
            f"{', '.join(sorted(WORKERS))}",
            worker=name,
            kind="unknown-worker",
        ) from None


def dispatch(name: str, payload: Dict[str, Any]) -> Any:
    """Run one task (the function the pool pickles by reference)."""
    return resolve(name)(payload)


def build_algorithm(spec: Dict[str, Any]):
    """Instantiate an algorithm from its serializable spec.

    ``{"name": "fft" | "swat" | "bitonic"}`` builds the calibrated paper
    workload; ``{"name": "micro", ...}`` / ``{"name": "micro-skewed",
    ...}`` forward their remaining keys to the micro-benchmark
    constructors.  Specs stay tiny and hashable; the (seeded) data is
    regenerated in the worker.
    """
    spec = dict(spec)
    try:
        name = spec.pop("name")
    except KeyError:
        raise ExperimentError(f"algorithm spec {spec!r} lacks a 'name'") from None
    if name == "micro":
        from repro.algorithms import MeanMicrobench

        return MeanMicrobench(**spec)
    if name == "micro-skewed":
        from repro.sanitize.sanitizer import SkewedMicrobench

        return SkewedMicrobench(**spec)
    if spec:
        raise ExperimentError(
            f"algorithm {name!r} takes no spec parameters, got {spec!r}"
        )
    from repro.harness.experiments import make_algorithm

    return make_algorithm(name)


def _config_from(payload: Dict[str, Any]):
    device = payload.get("device")
    return device_config_from_dict(device) if device is not None else None


@worker("run-total")
def _run_total(payload: Dict[str, Any]) -> int:
    """One measured simulation; returns total virtual time (ns)."""
    from repro.harness.phases import compute_only
    from repro.harness.runner import run

    algorithm = build_algorithm(payload["algorithm"])
    config = _config_from(payload)
    num_blocks = payload["num_blocks"]
    threads: Optional[int] = payload.get("threads_per_block")
    if payload["strategy"] == "null":
        result = compute_only(
            algorithm, num_blocks, threads_per_block=threads, config=config
        )
    else:
        result = run(
            algorithm,
            payload["strategy"],
            num_blocks,
            threads_per_block=threads,
            config=config,
            jitter_pct=payload.get("jitter_pct", 0.0),
            jitter_seed=payload.get("jitter_seed", 0),
        )
    return int(result.total_ns)


@worker("chaos-plan")
def _chaos_plan(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One fault plan under the resilient runtime → record dict."""
    from repro.faults.chaos import plan_record_from_payload

    return plan_record_from_payload(payload)


@worker("sanitize-schedule")
def _sanitize_schedule(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One fuzzed sanitizer schedule → findings + event counts."""
    from repro.sanitize.sanitizer import schedule_result_from_payload

    return schedule_result_from_payload(payload)


@worker("sleep")
def _sleep(payload: Dict[str, Any]) -> Any:
    """Sleep ``seconds`` then echo ``value`` (cache/order self-tests)."""
    time.sleep(payload.get("seconds", 0.0))
    return payload.get("value")


@worker("fragile")
def _fragile(payload: Dict[str, Any]) -> Any:
    """Die on demand, then echo ``value`` (supervisor self-tests).

    ``{"die": true}`` always kills the worker process (a poison
    payload); ``{"once_marker": path}`` dies on first execution and
    succeeds on the retry (a transient crash).  ``os._exit`` skips
    every ``finally``/atexit hook — the closest a pure-Python worker
    gets to a segfault.  Pool mode only.
    """
    if payload.get("die"):
        os._exit(13)
    marker = payload.get("once_marker")
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return payload.get("value")
