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
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.algorithms.base import RoundAlgorithm, VerificationError
from repro.algorithms.microbench import MeanMicrobench
from repro.errors import DeadlockError, ReproError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
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

__all__ = ["DEFAULT_SEED", "SkewedMicrobench", "sanitize_run"]

#: default base seed (the paper's publication year, for memorability).
DEFAULT_SEED = 2010


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
    named: bool,
    num_blocks: int,
    threads_per_block: Optional[int],
    cfg: DeviceConfig,
    schedule_seed: int,
    jitter_pct: float,
    verify: bool,
) -> Tuple[List[Finding], int, int]:
    """One fuzzed schedule → (findings in detection order, event counts)."""
    from repro.harness.runner import run  # late: harness imports sanitize types

    strat = get_strategy(strategy) if named else strategy
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
            threads_per_block=threads_per_block,
            config=cfg,
            verify=False,
            monitor_races=True,
            keep_device=True,
            jitter_pct=jitter_pct,
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
        if verify and strat.name != "null":
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

    return findings, len(probe.barrier_events), len(probe.accesses)


def schedule_result_from_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``sanitize-schedule`` worker body: payload dict → result dict.

    The algorithm arrives as a spec (rebuilt seeded in the worker) and
    the strategy as a registered name — the same restriction that gates
    the parallel path in :func:`sanitize_run`.
    """
    from repro.parallel.workers import build_algorithm

    algorithm = build_algorithm(payload["algorithm"])
    cfg = (
        device_config_from_dict(payload["device"])
        if payload.get("device")
        else get_preset("gtx280")
    )
    findings, barrier_events, access_events = _run_one_schedule(
        algorithm,
        payload["strategy"],
        True,
        payload["num_blocks"],
        payload.get("threads_per_block"),
        cfg,
        payload["seed"],
        payload["jitter_pct"],
        payload["verify"],
    )
    return plain(
        {
            "findings": [asdict(f) for f in findings],
            "barrier_events": barrier_events,
            "access_events": access_events,
        }
    )


def sanitize_run(
    algorithm: Optional[RoundAlgorithm] = None,
    strategy: Union[str, SyncStrategy] = "gpu-lockfree",
    num_blocks: int = 8,
    *,
    config: Optional[DeviceConfig] = None,
    seed: int = DEFAULT_SEED,
    schedules: int = 25,
    threads_per_block: Optional[int] = None,
    jitter_pct: float = 25.0,
    verify: bool = True,
    fail_fast: bool = False,
    executor=None,
    resume: Optional[str] = None,
) -> SanitizeReport:
    """Sanitize one (algorithm × strategy × grid) configuration.

    ``algorithm`` defaults to a :class:`SkewedMicrobench` sized to the
    grid.  ``strategy`` may be a registered name (a fresh instance is
    built per schedule) or an instance (re-``prepare``\\ d per schedule).
    ``schedules`` fuzzed interleavings run, each with a seed derived
    from ``seed`` and additional compute-time skew from the runner's
    jitter model (``jitter_pct``, same derived seed).  ``fail_fast``
    stops after the first flagged schedule.

    ``executor`` (:class:`repro.parallel.Executor`) shards the campaign
    per schedule seed; schedule results merge back in seed order, so the
    report — findings, occurrence counts, flagged tally — is identical
    to the serial run's.  The parallel path needs a portable
    configuration: the default algorithm and a strategy *name*.  A
    custom algorithm instance or strategy instance keeps the run serial.

    ``resume`` replays a journaled earlier invocation of the same
    parallel campaign (docs/resilience.md); the report's ``retries``
    and ``resumed_from`` fields carry the batch's provenance.

    Never raises for bugs it detects — deadlocks, divergence, races and
    verification failures all come back as findings in the report.
    """
    cfg = config or get_preset("gtx280")
    named = isinstance(strategy, str)
    resolved = get_strategy(strategy) if named else strategy
    spec: Optional[Dict[str, Any]] = None
    if algorithm is None:
        spec = {
            "name": "micro-skewed",
            "rounds": 4,
            "num_blocks_hint": num_blocks,
            "threads_per_block": threads_per_block or 64,
        }
        algorithm = SkewedMicrobench(
            **{k: v for k, v in spec.items() if k != "name"}
        )

    report = SanitizeReport(
        algorithm=algorithm.name,
        strategy=resolved.name,
        num_blocks=num_blocks,
        seed=seed,
        schedules_requested=schedules,
    )

    threads = threads_per_block or algorithm.default_threads
    for finding in check_occupancy(resolved, cfg, num_blocks, threads):
        report.add(finding)
    if not report.clean:
        # Running would only starve the engine; the point is to say so first.
        return report

    if executor is not None and spec is not None and named:
        base = {
            "algorithm": spec,
            "strategy": strategy,
            "num_blocks": num_blocks,
            "threads_per_block": threads_per_block,
            "device": device_config_to_dict(cfg),
            "jitter_pct": jitter_pct,
            "verify": verify,
        }
        results = executor.map(
            "sanitize-schedule",
            seed_payloads(seed, schedules, base),
            resume=resume,
        )
        for sched in results:
            before = sum(report.occurrences.values())
            report.schedules_run += 1
            report.barrier_events += sched["barrier_events"]
            report.access_events += sched["access_events"]
            for f in sched["findings"]:
                report.add(
                    Finding(
                        kind=f["kind"],
                        message=f["message"],
                        seed=f["seed"],
                        details=f["details"],
                    )
                )
            if sum(report.occurrences.values()) > before:
                report.schedules_flagged += 1
                if fail_fast:
                    break
        stats = executor.last_batch
        if stats is not None:
            report.retries = stats.retries
            report.resumed_from = stats.resumed_from
        return report

    for schedule_seed in derive_seeds(seed, schedules):
        before = sum(report.occurrences.values())
        findings, barrier_events, access_events = _run_one_schedule(
            algorithm,
            strategy,
            named,
            num_blocks,
            threads_per_block,
            cfg,
            schedule_seed,
            jitter_pct,
            verify,
        )
        report.schedules_run += 1
        report.barrier_events += barrier_events
        report.access_events += access_events
        for finding in findings:
            report.add(finding)

        # Flagged = any finding this schedule, new site or a repeat of one.
        if sum(report.occurrences.values()) > before:
            report.schedules_flagged += 1
            if fail_fast:
                break
    return report
