"""Chaos campaigns: seeded fault storms against the resilient runtime.

A campaign generates ``plans`` deterministic fault plans (seed-derived,
like sanitizer schedules) and runs each against one barrier strategy
under the full resilient runtime (:mod:`repro.harness.resilient`,
reached through ``repro.run(..., recover=True)``).  Every run must end in
one of four *explained* outcomes:

* ``ok`` — finished verified on the first attempt (faults may have
  fired but were absorbed: a straggler only costs time);
* ``recovered`` — a retry outran a transient fault; finished verified;
* ``degraded`` — retries exhausted, the run finished verified on the
  ``cpu-implicit`` fallback barrier;
* ``failed`` — a *typed* error naming the injected fault.

Anything else is **unexplained** and fails the campaign: a
:class:`~repro.errors.DeadlockError` escaping the armed runner, an
untyped exception, a result that came back unverified, or a cross-check
mismatch.

The cross-check closes the loop with :mod:`repro.sanitize`: each plan
whose first attempt fired a liveness fault (``hang`` or
``driver-kill``) is replayed once with a fresh same-seed plan and a
:class:`~repro.sanitize.probe.SanitizerProbe`; the replay must either
raise the same typed error or yield a barrier finding.  An injected
stall the detectors cannot see would mean the two subsystems disagree
about what happened — exactly the silent-failure class this campaign
exists to rule out.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.algorithms.base import RoundAlgorithm, VerificationError, require_int
from repro.errors import (
    BarrierTimeoutError,
    DeadlockError,
    FaultError,
    OccupancyError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults.plan import FaultPlan
from repro.serialization import (
    device_config_from_dict,
    device_config_to_dict,
    dump_result,
    parse_result,
    require,
    shape_errors,
)

__all__ = ["ChaosReport", "ChaosRunRecord", "chaos_campaign"]

#: rounds of the campaign workload; each plan's faults are drawn over them.
ROUNDS = 4

#: typed failures a campaign accepts as explained.
_TYPED = (
    RetryExhaustedError,
    BarrierTimeoutError,
    FaultError,
    VerificationError,
)


@dataclass(frozen=True)
class ChaosRunRecord:
    """One plan's fate under the resilient runtime."""

    seed: int
    planned: List[str]  #: the plan's fault descriptions
    outcome: str  #: ``ok`` / ``recovered`` / ``degraded`` / ``failed``
    attempts: int
    fired: List[str]  #: fault kinds that actually fired
    error: Optional[str] = None  #: the typed error for ``failed`` runs
    #: False when this run's fate cannot be pinned on its plan (the
    #: campaign-failing condition).
    explained: bool = True
    #: cross-check verdict: None = not applicable, True/False = ran.
    cross_checked: Optional[bool] = None


@dataclass
class ChaosReport:
    """Aggregated campaign outcome (deterministic for a given seed)."""

    strategy: str
    algorithm: str
    num_blocks: int
    seed: int
    plans: int
    records: List[ChaosRunRecord] = field(default_factory=list)
    # -- partial-failure provenance (supervised executor campaigns) --
    #: process-level re-executions the parallel supervisor forced.
    retries: int = 0
    #: plan indices quarantined as poison.  Always empty on a finished
    #: campaign (a poison payload makes the executor raise); kept so
    #: the report envelope's keys stay unchanged.
    quarantined: List[int] = field(default_factory=list)
    #: run-id this campaign was resumed from, if any.  In-memory only:
    #: excluded from serialization and equality so a resumed campaign
    #: stays bit-identical to an uninterrupted one.
    resumed_from: Optional[str] = field(default=None, compare=False)

    def count(self, outcome: str) -> int:
        """Number of runs with the given outcome."""
        return sum(1 for r in self.records if r.outcome == outcome)

    @property
    def unexplained(self) -> List[ChaosRunRecord]:
        """Runs whose fate cannot be pinned on their fault plan."""
        return [r for r in self.records if not r.explained]

    @property
    def clean(self) -> bool:
        """True when every run's outcome is explained by its plan."""
        return not self.unexplained

    def render(self) -> str:
        """Plain-text campaign summary."""
        lines = [
            f"chaos campaign: {self.strategy} x {self.algorithm} "
            f"({self.num_blocks} blocks, seed {self.seed})",
            f"  plans run    {len(self.records)}/{self.plans}",
            f"  ok           {self.count('ok')}",
            f"  recovered    {self.count('recovered')}",
            f"  degraded     {self.count('degraded')}",
            f"  failed       {self.count('failed')} (typed)",
            f"  unexplained  {len(self.unexplained)}",
        ]
        for rec in self.unexplained:
            lines.append(
                f"    !! seed {rec.seed}: {rec.outcome} "
                f"[{', '.join(rec.planned)}] {rec.error or ''}"
            )
        tail = "CLEAN" if self.clean else "UNEXPLAINED FAILURES"
        lines.append(f"  verdict      {tail}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialize via the shared versioned envelope (docs/parallel.md)."""
        return dump_result(
            "chaos-report",
            {
                "strategy": self.strategy,
                "algorithm": self.algorithm,
                "num_blocks": self.num_blocks,
                "seed": self.seed,
                "plans": self.plans,
                "records": [asdict(r) for r in self.records],
                "retries": self.retries,
                "quarantined": list(self.quarantined),
            },
        )

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "ChaosReport":
        """Rebuild a report from :meth:`to_json` output (typed failures).

        Accepts the pre-provenance schema-2 envelope too; ``retries``
        and ``quarantined`` then default to a clean campaign.
        """
        payload = parse_result(text, kind="chaos-report", source=source)
        with shape_errors(source):
            return cls(
                strategy=require(payload, "strategy", source),
                algorithm=require(payload, "algorithm", source),
                num_blocks=require(payload, "num_blocks", source),
                seed=require(payload, "seed", source),
                plans=require(payload, "plans", source),
                records=[
                    ChaosRunRecord(**r)
                    for r in require(payload, "records", source)
                ],
                retries=int(payload.get("retries", 0)),
                quarantined=list(payload.get("quarantined", [])),
            )


def _algorithm(num_blocks: int) -> RoundAlgorithm:
    """The campaign's workload: a skewed micro-benchmark of :data:`ROUNDS`."""
    from repro.sanitize.sanitizer import SkewedMicrobench

    return SkewedMicrobench(rounds=ROUNDS, num_blocks_hint=num_blocks)


def _cross_check(plan_seed: int, strategy: str, num_blocks: int, config) -> bool:
    """Replay attempt 1 under the sanitizer probe; True = consistent.

    A fresh plan from the same seed fires the same attempt-1 faults.
    If a liveness fault (hang / driver-kill) fires, the replay must be
    *detected* — a typed error from the armed runner, or a barrier
    finding from the probe.  The replay runs without recovery, so its
    first attempt's error is the one seen; on a grid past the strategy's
    co-residency limit that is the launch's
    :class:`~repro.errors.OccupancyError`, which fires nothing and so
    counts as detected.  A DeadlockError here is an
    automatic inconsistency: an armed run must turn every stall into
    :class:`~repro.errors.BarrierTimeoutError` or
    :class:`~repro.errors.FaultError`.
    """
    from repro.harness.runner import run
    from repro.sanitize.analysis import barrier_findings
    from repro.sanitize.probe import SanitizerProbe

    plan = FaultPlan.generate(plan_seed, num_blocks, ROUNDS)
    probe = SanitizerProbe()
    detected = False
    try:
        run(
            _algorithm(num_blocks),
            strategy,
            num_blocks,
            config=config,
            verify=False,
            probe=probe,
            faults=plan,
        )
    except (BarrierTimeoutError, FaultError, OccupancyError):
        detected = True
    except DeadlockError:
        return False  # an armed run must never leak this
    findings = barrier_findings(
        probe, num_blocks, seed=plan_seed, deadlocked=detected
    )
    detected = detected or bool(findings)
    liveness_fired = {"hang", "driver-kill"} & set(plan.fired_kinds)
    return detected if liveness_fired else True


def _plan_record(
    strategy: str, plan_seed: int, num_blocks: int, config
) -> ChaosRunRecord:
    """Run one seeded fault plan to its explained (or not) outcome."""
    from repro.harness.runner import run

    plan = FaultPlan.generate(plan_seed, num_blocks, ROUNDS)
    planned = plan.descriptions
    outcome = "failed"
    attempts = 0
    error: Optional[str] = None
    explained = True
    try:
        result = run(
            _algorithm(num_blocks),
            strategy,
            num_blocks,
            config=config,
            faults=plan,
            recover=True,
        )
        attempts = result.attempts
        if result.degraded:
            outcome = "degraded"
        elif result.attempts > 1:
            outcome = "recovered"
        else:
            outcome = "ok"
        # Zero silent wrong answers: a non-failed run must have
        # actually been verified against the reference output.
        if result.verified is not True:
            explained = False
            error = "run returned unverified"
    except _TYPED as exc:
        attempts = plan.attempt
        error = f"{type(exc).__name__}: {exc}"
    except ReproError as exc:
        # Typed, but not a failure the resilient path is allowed to
        # surface — in particular a DeadlockError escaping the armed
        # runner.
        explained = False
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - untyped = campaign bug
        explained = False
        error = f"untyped {type(exc).__name__}: {exc}"

    checked: Optional[bool] = None
    if explained and {"hang", "driver-kill"} & set(plan.fired_kinds):
        checked = _cross_check(plan_seed, strategy, num_blocks, config)
        if not checked:
            explained = False
            error = (error or "") + " [cross-check: fault undetected]"

    return ChaosRunRecord(
        seed=plan_seed,
        planned=planned,
        outcome=outcome,
        attempts=attempts,
        fired=plan.fired_kinds,
        error=error,
        explained=explained,
        cross_checked=checked,
    )


def plan_record_from_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``chaos-plan`` worker body: payload dict → record dict.

    The device config arrives as a plain dict (pickle- and cache-safe).
    """
    config = (
        device_config_from_dict(payload["device"])
        if payload.get("device")
        else None
    )
    record = _plan_record(
        payload["strategy"], payload["seed"], payload["num_blocks"], config
    )
    return asdict(record)


def chaos_campaign(
    strategy: str = "gpu-lockfree",
    plans: int = 50,
    seed: int = 2010,
    num_blocks: int = 8,
    config=None,
    executor=None,
    resume: Optional[str] = None,
) -> ChaosReport:
    """Run ``plans`` seeded fault plans against one strategy.

    Plan ``i`` of a long campaign equals plan ``i`` of a short one
    (stable seed derivation), so a failing seed from CI replays locally
    with ``FaultPlan.generate(that_seed, num_blocks, ROUNDS)``.

    Each plan is one ``chaos-plan`` task of ``executor``
    (:class:`repro.parallel.Executor`; ``None`` runs them inline, one
    after another).  Records come back in seed order, so the report —
    verdict included — does not depend on the executor.  A negative
    ``plans`` raises :class:`~repro.errors.ConfigError`.

    ``resume`` replays a journaled earlier invocation of the same
    campaign (docs/resilience.md); the report's ``retries`` and
    ``resumed_from`` fields carry the batch's provenance.
    """
    from repro.parallel import Executor
    from repro.sanitize.fuzzer import seed_payloads

    require_int("plans", plans, minimum=0)
    report = ChaosReport(
        strategy=strategy,
        algorithm=_algorithm(num_blocks).name,
        num_blocks=num_blocks,
        seed=seed,
        plans=plans,
    )
    base = {
        "strategy": strategy,
        "num_blocks": num_blocks,
        "device": device_config_to_dict(config) if config is not None else None,
    }
    ex = executor if executor is not None else Executor(jobs=1)
    records = ex.map("chaos-plan", seed_payloads(seed, plans, base), resume=resume)
    report.records.extend(ChaosRunRecord(**raw) for raw in records)
    stats = ex.last_batch
    if stats is not None:
        report.retries = stats.retries
        report.resumed_from = stats.resumed_from
    return report
