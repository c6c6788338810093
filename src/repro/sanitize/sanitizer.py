"""``sanitize_run``: replay a configuration under fuzzed schedules.

The top of the sanitizer stack.  One call:

1. statically checks the §5 occupancy rule (and reports instead of
   starving the engine);
2. replays the configuration under ``schedules`` seeded adversarial
   interleavings (:class:`~repro.sanitize.fuzzer.ScheduleFuzzer`), each
   with instrumented execution
   (:class:`~repro.sanitize.probe.SanitizerProbe`);
3. runs every detector (:mod:`repro.sanitize.analysis`) on each
   schedule's event streams and trace;
4. aggregates everything into one deterministic
   :class:`~repro.sanitize.report.SanitizeReport` — same seed, same
   configuration ⇒ byte-identical report, and every finding carries the
   schedule seed that replays it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.algorithms.base import RoundAlgorithm, VerificationError
from repro.algorithms.microbench import MeanMicrobench
from repro.errors import DeadlockError, ReproError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.parallel import Executor
from repro.parallel.workers import build_algorithm
from repro.sanitize.analysis import (
    barrier_findings,
    check_occupancy,
    race_findings,
    round_ordering_violations,
)
from repro.sanitize.fuzzer import ScheduleFuzzer, derive_seeds, seed_payloads
from repro.sanitize.probe import SanitizerProbe
from repro.sanitize.report import Finding, SanitizeReport
from repro.serialization import device_config_from_dict, device_config_to_dict, plain
from repro.sync.base import SyncStrategy, get_strategy

__all__ = ["DEFAULT_SEED", "JITTER_PCT", "SkewedMicrobench", "sanitize_run"]

#: default base seed (the paper's publication year, for memorability).
DEFAULT_SEED = 2010

#: compute-time skew (percent) of every fuzzed schedule; its jitter
#: seed is the schedule seed, so a finding's seed replays both.
JITTER_PCT = 25.0


class SkewedMicrobench(MeanMicrobench):
    """The micro-benchmark with deliberately uneven per-block rounds.

    Block ``b``'s round costs ``(1 + b % 3)×`` the base, so blocks reach
    each barrier at well-separated times.  Uniform-cost workloads keep
    blocks in accidental lockstep, which masks premature-release bugs —
    the schedule fuzzer permutes *order*, not *time*, so the sanitizer's
    default workload builds the time skew in.
    """

    name = "micro-skewed"

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        return super().round_cost(round_idx, block_id, num_blocks) * (
            1 + block_id % 3
        )


def _run_one_schedule(
    algorithm: RoundAlgorithm,
    strategy: Union[str, SyncStrategy],
    num_blocks: int,
    cfg: DeviceConfig,
    schedule_seed: int,
) -> Dict[str, Any]:
    """One fuzzed schedule → its findings (detection order) and event counts.

    The result is the plain dict a ``sanitize-schedule`` worker returns,
    so :func:`sanitize_run` merges both sources the same way.
    """
    from repro.harness.runner import run  # late: harness imports sanitize types

    strat = get_strategy(strategy) if isinstance(strategy, str) else strategy
    fuzzer = ScheduleFuzzer(schedule_seed)
    probe = SanitizerProbe()
    findings: List[Finding] = []
    deadlocked = False
    result = None
    try:
        result = run(
            algorithm,
            strat,
            num_blocks,
            config=cfg,
            verify=False,
            monitor_races=True,
            keep_device=True,
            jitter_pct=JITTER_PCT,
            jitter_seed=schedule_seed,
            fuzzer=fuzzer,
            probe=probe,
        )
    except DeadlockError:
        deadlocked = True
    except ReproError as exc:
        findings.append(
            Finding(
                kind="simulation-error",
                message=f"{type(exc).__name__}: {exc}",
                seed=schedule_seed,
            )
        )

    findings.extend(
        barrier_findings(
            probe, num_blocks, seed=schedule_seed, deadlocked=deadlocked
        )
    )
    findings.extend(race_findings(probe, seed=schedule_seed))

    if result is not None:
        for violation in round_ordering_violations(result.device.trace):
            findings.append(
                Finding(
                    kind="round-overlap",
                    message=(
                        f"round {violation['round'] + 1} work began at "
                        f"{violation['next_round_start_ns']} ns, before "
                        f"round {violation['round']} finished at "
                        f"{violation['latest_end_ns']} ns"
                    ),
                    seed=schedule_seed,
                    details={
                        **violation,
                        "monitor_violations": result.violations,
                    },
                )
            )
        if strat.name != "null":
            try:
                algorithm.verify()
            except VerificationError as exc:
                findings.append(
                    Finding(
                        kind="verification-failed",
                        message=str(exc).splitlines()[0],
                        seed=schedule_seed,
                    )
                )

    return plain(
        {
            "findings": [asdict(f) for f in findings],
            "barrier_events": len(probe.barrier_events),
            "access_events": len(probe.accesses),
        }
    )


def schedule_result_from_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``sanitize-schedule`` worker body: payload dict → result dict.

    The algorithm arrives as a spec (rebuilt seeded in the worker) and
    the strategy as a registered name — the same restriction that picks
    the executor source in :func:`sanitize_run`.
    """
    cfg = (
        device_config_from_dict(payload["device"])
        if payload.get("device")
        else get_preset("gtx280")
    )
    return _run_one_schedule(
        build_algorithm(payload["algorithm"]),
        payload["strategy"],
        payload["num_blocks"],
        cfg,
        payload["seed"],
    )


def sanitize_run(
    algorithm: Optional[RoundAlgorithm] = None,
    strategy: Union[str, SyncStrategy] = "gpu-lockfree",
    num_blocks: int = 8,
    *,
    config: Optional[DeviceConfig] = None,
    seed: int = DEFAULT_SEED,
    schedules: int = 25,
    executor=None,
    resume: Optional[str] = None,
) -> SanitizeReport:
    """Sanitize one (algorithm × strategy × grid) configuration.

    ``algorithm`` defaults to a 4-round :class:`SkewedMicrobench` sized
    to the grid at 64 threads per block.  ``strategy`` may be a
    registered name (a fresh instance is built per schedule) or an
    instance (re-``prepare``\\ d per schedule).  ``schedules`` fuzzed
    interleavings run, each with a seed derived from ``seed`` and
    :data:`JITTER_PCT` compute-time skew from the runner's jitter model
    (same derived seed); every run of a non-``null`` strategy is then
    verified against the algorithm's reference.

    Per-schedule results come from one of two sources and merge in one
    loop, in seed order.  The default algorithm with a strategy *name*
    is portable: each schedule is a ``sanitize-schedule`` task of
    ``executor`` (:class:`repro.parallel.Executor`; ``None`` runs them
    inline, one after another), so the report — findings, occurrence
    counts, flagged tally — does not depend on the executor.  A custom
    algorithm instance or strategy instance runs its schedules in
    process, and ``executor`` and ``resume`` go unused.

    ``resume`` replays a journaled earlier invocation of the same
    executor campaign (docs/resilience.md); the report's ``retries``
    and ``resumed_from`` fields carry the batch's provenance.

    Never raises for bugs it detects — deadlocks, divergence, races and
    verification failures all come back as findings in the report.
    """
    cfg = config or get_preset("gtx280")
    resolved = get_strategy(strategy) if isinstance(strategy, str) else strategy
    spec: Optional[Dict[str, Any]] = None
    if algorithm is None:
        spec = {
            "name": "micro-skewed",
            "rounds": 4,
            "num_blocks_hint": num_blocks,
            "threads_per_block": 64,
        }
        algorithm = build_algorithm(spec)

    report = SanitizeReport(
        algorithm=algorithm.name,
        strategy=resolved.name,
        num_blocks=num_blocks,
        seed=seed,
        schedules_requested=schedules,
    )

    for finding in check_occupancy(
        resolved, cfg, num_blocks, algorithm.default_threads
    ):
        report.add(finding)
    if not report.clean:
        # Running would only starve the engine; the point is to say so first.
        return report

    results: Iterable[Dict[str, Any]]
    if spec is not None and isinstance(strategy, str):
        ex = executor if executor is not None else Executor(jobs=1)
        base = {
            "algorithm": spec,
            "strategy": strategy,
            "num_blocks": num_blocks,
            "device": device_config_to_dict(cfg),
        }
        results = ex.map(
            "sanitize-schedule", seed_payloads(seed, schedules, base), resume=resume
        )
        stats = ex.last_batch
        if stats is not None:
            report.retries = stats.retries
            report.resumed_from = stats.resumed_from
    else:
        results = (
            _run_one_schedule(algorithm, strategy, num_blocks, cfg, schedule_seed)
            for schedule_seed in derive_seeds(seed, schedules)
        )

    for sched in results:
        before = sum(report.occurrences.values())
        report.schedules_run += 1
        report.barrier_events += sched["barrier_events"]
        report.access_events += sched["access_events"]
        for f in sched["findings"]:
            report.add(Finding(**f))
        # Flagged = any finding this schedule, new site or a repeat of one.
        if sum(report.occurrences.values()) > before:
            report.schedules_flagged += 1
    return report
