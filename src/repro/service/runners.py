"""The registry mapping job specs to experiment drivers.

A job spec is a plain dict — ``{"experiment": <name>, "params":
{...}}`` — small enough to content-address (:func:`~repro.service.jobs
.job_id_for`) and strict enough to refuse garbage before it is ever
enqueued: :func:`validate_spec` runs at submission time (the HTTP app
maps its typed :class:`~repro.errors.ServiceError` to a 400), so the
queue only ever holds executable work.

:func:`execute_spec` runs in the worker process.  Every runner drives
its experiment through a journal-armed
:class:`~repro.parallel.Executor` with ``resume="auto"``, which is the
entire crash-recovery story: a worker SIGKILLed mid-sweep leaves its
completed cells in the write-ahead journal under the batch's
content-derived run-id; the requeued attempt replays them and executes
only the remainder; and because journal replay is bit-identical to
execution (docs/resilience.md), the final serialized envelope is
**byte-identical** to an uninterrupted serial run — the property the
service-smoke CI job pins.

Runners return the *serialized schema-3 envelope text*, not a live
object: the job table stores exactly these bytes and the result
endpoint serves exactly these bytes, so byte-identity survives the
whole pipeline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import ServiceError
from repro.harness.params import (
    ALGORITHM,
    BLOCKS,
    PLANS,
    ROUNDS,
    SCHEDULES,
    SEED,
    STEP,
    STRATEGY,
    Param,
)

__all__ = ["RUNNERS", "execute_spec", "runner", "validate_spec"]

#: experiment name -> runner(params, executor) -> envelope text.
RUNNERS: Dict[str, Callable[..., str]] = {}

#: experiment name -> {param name: the CLI flag it shares type and default with}.
_PARAMS: Dict[str, Dict[str, Param]] = {}


def runner(name: str, *params: Param) -> Callable:
    """Register an experiment runner under ``name``, reading ``params``."""

    def register(fn: Callable[..., str]) -> Callable[..., str]:
        RUNNERS[name] = fn
        _PARAMS[name] = {p.name: p for p in params}
        return fn

    return register


def validate_spec(spec: Any) -> Dict[str, Any]:
    """Check a submitted spec; returns it normalized or raises.

    Every refusal is a typed :class:`~repro.errors.ServiceError`
    (``kind="spec"``) naming what was wrong — the HTTP app serializes
    the message into the 400 response, so a client never has to guess.
    """
    if not isinstance(spec, dict):
        raise ServiceError(
            f"job spec must be a JSON object, got {type(spec).__name__}",
            kind="spec",
        )
    unknown = set(spec) - {"experiment", "params"}
    if unknown:
        raise ServiceError(
            f"job spec has unknown key(s) {sorted(unknown)}; "
            "allowed: 'experiment', 'params'",
            kind="spec",
        )
    experiment = spec.get("experiment")
    if experiment not in RUNNERS:
        raise ServiceError(
            f"unknown experiment {experiment!r}; known: "
            f"{', '.join(sorted(RUNNERS))}",
            kind="spec",
        )
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError(
            f"'params' must be a JSON object, got {type(params).__name__}",
            kind="spec",
        )
    allowed = _PARAMS[experiment]
    for key, value in params.items():
        if key not in allowed:
            raise ServiceError(
                f"experiment {experiment!r} takes no parameter {key!r}; "
                f"allowed: {', '.join(sorted(allowed)) or '(none)'}",
                kind="spec",
            )
        # bool is an int subclass but never a valid count/seed here.
        kind = allowed[key].type
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ServiceError(
                f"parameter {key!r} of experiment {experiment!r} must be "
                f"{kind.__name__}, got {value!r}",
                kind="spec",
            )
    return {"experiment": experiment, "params": dict(params)}


def execute_spec(
    spec: Dict[str, Any],
    *,
    journal_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
) -> str:
    """Run one validated spec to its serialized result envelope.

    ``journal_dir`` arms the write-ahead journal (and ``resume="auto"``)
    on every batch the experiment runs — the crash-recovery contract.
    ``cache_dir`` optionally adds the content-addressed result cache, so
    overlapping sweeps share cell results across jobs.
    """
    from repro.parallel import Executor, ResultCache

    spec = validate_spec(spec)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    executor = Executor(jobs=jobs, cache=cache, journal_dir=journal_dir)
    name = spec["experiment"]
    defaults = {key: p.default for key, p in _PARAMS[name].items()}
    return RUNNERS[name]({**defaults, **spec["params"]}, executor)


@runner("fig11", ROUNDS)
def _fig11(params: Dict[str, Any], executor: Any) -> str:
    """The paper's micro-benchmark sweep (Fig. 11) → sweep envelope."""
    from repro.harness import experiments

    sweep = experiments.fig11(
        rounds=params["rounds"], executor=executor, resume="auto"
    )
    return sweep.to_json()


@runner("algorithm-sweep", ALGORITHM, STEP)
def _algorithm_sweep(params: Dict[str, Any], executor: Any) -> str:
    """One workload's block sweep (Figs. 13/14) → sweep envelope."""
    from repro.harness import experiments

    sweep = experiments.algorithm_sweep(
        params["algorithm"], step=params["step"], executor=executor,
        resume="auto",
    )
    return sweep.to_json()


@runner("chaos", STRATEGY, PLANS, SEED, BLOCKS)
def _chaos(params: Dict[str, Any], executor: Any) -> str:
    """A seeded fault-plan campaign → chaos-report envelope."""
    from repro.faults import chaos_campaign

    report = chaos_campaign(
        params["strategy"],
        plans=params["plans"],
        seed=params["seed"],
        num_blocks=params["blocks"],
        executor=executor,
        resume="auto",
    )
    return report.to_json()


@runner("sanitize", STRATEGY, SCHEDULES, SEED, BLOCKS)
def _sanitize(params: Dict[str, Any], executor: Any) -> str:
    """A fuzzed-schedule sanitizer run → sanitize-report envelope."""
    from repro.sanitize import sanitize_run

    report = sanitize_run(
        strategy=params["strategy"],
        num_blocks=params["blocks"],
        seed=params["seed"],
        schedules=params["schedules"],
        executor=executor,
        resume="auto",
    )
    return report.to_json()
