"""Sanitizer findings and the deterministic sanitize report.

A finding is one detected bug instance; a report aggregates the
findings of every fuzzed schedule of one configuration.  Rendering is
deterministic — same seed, same configuration ⇒ byte-identical text —
so reports can be diffed, committed, and replayed from the seed they
print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.findings import DYNAMIC_CODES, FINDING_CODES, by_name, format_finding

__all__ = ["Finding", "SanitizeReport", "BUG_CLASSES"]

#: the sanitizer's bug taxonomy → one-line description.  Derived from
#: the shared static/dynamic registry (:mod:`repro.findings`) so the
#: sanitizer and the static linter can never drift apart on vocabulary.
BUG_CLASSES: Dict[str, str] = {
    FINDING_CODES[code].name: FINDING_CODES[code].summary
    for code in DYNAMIC_CODES
}


@dataclass(frozen=True)
class Finding:
    """One detected correctness problem.

    ``fingerprint`` identifies the *site* of the bug (kind + stable
    details) so the same defect found under many schedules aggregates to
    one reported finding with an occurrence count.
    """

    kind: str  #: one of :data:`BUG_CLASSES`
    message: str  #: human-readable one-liner
    seed: Optional[int] = None  #: schedule seed that exposed it
    details: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in BUG_CLASSES:
            raise ValueError(
                f"unknown finding kind {self.kind!r}; "
                f"known: {', '.join(sorted(BUG_CLASSES))}"
            )

    @property
    def fingerprint(self) -> str:
        """Stable identity of the defect site across schedules."""
        return f"{self.kind}:{self.message}"


@dataclass
class SanitizeReport:
    """Everything the sanitizer observed for one configuration."""

    algorithm: str
    strategy: str
    num_blocks: int
    seed: int  #: base seed; schedule i's seed derives from it
    schedules_requested: int
    schedules_run: int = 0
    schedules_flagged: int = 0
    findings: List[Finding] = field(default_factory=list)
    #: fingerprint → occurrence count across schedules.
    occurrences: Dict[str, int] = field(default_factory=dict)
    #: total barrier / access events observed (instrumentation volume).
    barrier_events: int = 0
    access_events: int = 0
    # -- partial-failure provenance (supervised executor campaigns) --
    #: process-level re-executions the parallel supervisor forced.
    retries: int = 0
    #: schedule indices quarantined as poison.  Always empty on a
    #: finished campaign (a poison payload makes the executor raise);
    #: kept so the report envelope's keys stay unchanged.
    quarantined: List[int] = field(default_factory=list)
    #: run-id this campaign was resumed from, if any.  In-memory only:
    #: excluded from serialization and equality so a resumed campaign
    #: stays bit-identical to an uninterrupted one.
    resumed_from: Optional[str] = field(default=None, compare=False)

    @property
    def clean(self) -> bool:
        """True when no schedule produced any finding."""
        return not self.findings

    def add(self, finding: Finding) -> None:
        """Record a finding, aggregating repeats by fingerprint."""
        fp = finding.fingerprint
        if fp in self.occurrences:
            self.occurrences[fp] += 1
            return
        self.occurrences[fp] = 1
        self.findings.append(finding)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stable key order)."""
        return {
            "algorithm": self.algorithm,
            "strategy": self.strategy,
            "num_blocks": self.num_blocks,
            "seed": self.seed,
            "schedules_requested": self.schedules_requested,
            "schedules_run": self.schedules_run,
            "schedules_flagged": self.schedules_flagged,
            "clean": self.clean,
            "barrier_events": self.barrier_events,
            "access_events": self.access_events,
            "retries": self.retries,
            "quarantined": list(self.quarantined),
            "findings": [
                {
                    "kind": f.kind,
                    "message": f.message,
                    "seed": f.seed,
                    "occurrences": self.occurrences[f.fingerprint],
                    "details": f.details or {},
                }
                for f in self.findings
            ],
        }

    def to_json(self) -> str:
        """Deterministic JSON in the shared versioned envelope.

        Equal reports render byte-identical text (the property the
        sanitizer's determinism tests and the parallel-parity tests
        assert), and the envelope's schema/kind stamps make stored
        reports fail loudly on format drift.
        """
        from repro.serialization import dump_result

        return dump_result("sanitize-report", self.to_dict())

    @classmethod
    def from_json(
        cls, text: str, *, source: str = "<string>"
    ) -> "SanitizeReport":
        """Rebuild a report from :meth:`to_json` output (typed failures)."""
        from repro.serialization import parse_result, require, shape_errors

        payload = parse_result(text, kind="sanitize-report", source=source)
        with shape_errors(source):
            report = cls(
                algorithm=require(payload, "algorithm", source),
                strategy=require(payload, "strategy", source),
                num_blocks=require(payload, "num_blocks", source),
                seed=require(payload, "seed", source),
                schedules_requested=require(payload, "schedules_requested", source),
                schedules_run=require(payload, "schedules_run", source),
                schedules_flagged=require(payload, "schedules_flagged", source),
                barrier_events=require(payload, "barrier_events", source),
                access_events=require(payload, "access_events", source),
                retries=int(payload.get("retries", 0)),
                quarantined=list(payload.get("quarantined", [])),
            )
            for entry in require(payload, "findings", source):
                finding = Finding(
                    kind=entry["kind"],
                    message=entry["message"],
                    seed=entry["seed"],
                    details=entry["details"] or None,
                )
                report.findings.append(finding)
                report.occurrences[finding.fingerprint] = entry["occurrences"]
            return report

    def render(self) -> str:
        """Deterministic plain-text report."""
        verdict = "CLEAN" if self.clean else f"{len(self.findings)} finding(s)"
        lines = [
            f"sanitize: {self.algorithm} × {self.strategy} × "
            f"{self.num_blocks} blocks — {verdict}",
            f"  seed {self.seed}, schedules {self.schedules_run}/"
            f"{self.schedules_requested} run, {self.schedules_flagged} flagged; "
            f"{self.barrier_events} barrier events, "
            f"{self.access_events} access events",
        ]
        for f in self.findings:
            count = self.occurrences[f.fingerprint]
            seed = f"seed {f.seed}" if f.seed is not None else "pre-run check"
            lines.append(
                "  "
                + format_finding(
                    by_name(f.kind),
                    f.message,
                    suffix=f"first at {seed}; seen in {count} schedule(s)",
                )
            )
        if self.clean and self.schedules_run:
            lines.append(
                "  no divergence, races, premature releases or deadlocks "
                "under any fuzzed schedule"
            )
        return "\n".join(lines)
