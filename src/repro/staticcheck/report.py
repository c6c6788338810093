"""Static findings and the deterministic lint report.

Mirrors :mod:`repro.sanitize.report`: a :class:`StaticFinding` is one
detected protocol bug *site* in source code, a :class:`LintReport`
aggregates a whole lint run, and both serialize through the shared
schema-2 envelope (:mod:`repro.serialization`) under the
``lint-report`` kind, so lint reports store, load and diff exactly like
sanitizer reports.

Rendering is deterministic and input-order independent: findings sort
by ``(file, line, code, message)`` and files are recorded sorted, so
linting the same tree always produces byte-identical text regardless of
how the paths were given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.findings import FINDING_CODES, FindingCode, format_finding

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.staticcheck.repair import Fix

__all__ = ["LintReport", "StaticFinding"]


@dataclass(frozen=True)
class StaticFinding:
    """One statically-detected barrier-protocol bug site."""

    code: str  #: an ``SC00x`` code from :mod:`repro.findings`
    message: str  #: human-readable one-liner, names the offending code
    file: str  #: path as recorded by the lint run
    line: int  #: 1-based source line of the offending node
    unit: str = "<module>"  #: qualname of the analyzed function/class
    #: machine-applicable repairs (``repro lint --fix``); excluded from
    #: equality so loaded reports compare equal to freshly-linted ones.
    fixes: Tuple["Fix", ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        meta = FINDING_CODES.get(self.code)
        if meta is None or meta.origin != "static":
            raise ValueError(
                f"unknown static finding code {self.code!r}"
            )

    @property
    def meta(self) -> FindingCode:
        """The registry entry behind this finding's code."""
        return FINDING_CODES[self.code]

    @property
    def severity(self) -> str:
        return self.meta.severity

    @property
    def sort_key(self) -> Any:
        return (self.file, self.line, self.code, self.message, self.unit)

    def render(self) -> str:
        """One deterministic text line (same shape as dynamic findings)."""
        return f"{self.file}:{self.line}: " + format_finding(
            self.meta, self.message, suffix=f"in {self.unit}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "name": self.meta.name,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "unit": self.unit,
            "fixable": bool(self.fixes),
        }


@dataclass
class LintReport:
    """Everything one lint run observed."""

    #: sorted, de-duplicated file paths that were parsed.
    files: List[str] = field(default_factory=list)
    #: kernel-shaped units (functions/methods) analyzed across them.
    units_checked: int = 0
    findings: List[StaticFinding] = field(default_factory=list)
    #: findings silenced by ``# repro: noqa`` comments.
    suppressed: int = 0
    #: per-code breakdown of the suppressed findings — kept separate
    #: from the summary totals so CI logs never read suppressed noise
    #: as outstanding findings.
    suppressed_codes: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings

    @property
    def errors(self) -> List[StaticFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def codes(self) -> List[str]:
        """Distinct finding codes present, sorted."""
        return sorted({f.code for f in self.findings})

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit status: 1 on errors (any finding under ``strict``)."""
        if strict:
            return 0 if self.clean else 1
        return 0 if not self.errors else 1

    def normalize(self) -> "LintReport":
        """Sort files and findings into canonical order (in place)."""
        self.files = sorted(dict.fromkeys(self.files))
        self.findings.sort(key=lambda f: f.sort_key)
        return self

    def to_dict(self) -> Dict[str, Any]:
        self.normalize()
        return {
            "files": list(self.files),
            "files_checked": len(self.files),
            "units_checked": self.units_checked,
            "suppressed": self.suppressed,
            "suppressed_codes": {
                code: self.suppressed_codes[code]
                for code in sorted(self.suppressed_codes)
            },
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Deterministic JSON in the shared versioned envelope."""
        from repro.serialization import dump_result

        return dump_result("lint-report", self.to_dict())

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "LintReport":
        """Rebuild a report from :meth:`to_json` output (typed failures)."""
        from repro.serialization import parse_result, require, shape_errors

        payload = parse_result(text, kind="lint-report", source=source)
        with shape_errors(source):
            report = cls(
                files=list(require(payload, "files", source)),
                units_checked=require(payload, "units_checked", source),
                suppressed=require(payload, "suppressed", source),
                # Older stored reports predate the per-code breakdown.
                suppressed_codes=dict(payload.get("suppressed_codes", {})),
            )
            for entry in require(payload, "findings", source):
                report.findings.append(
                    StaticFinding(
                        code=entry["code"],
                        message=entry["message"],
                        file=entry["file"],
                        line=entry["line"],
                        unit=entry.get("unit", "<module>"),
                    )
                )
            return report.normalize()

    def render(self) -> str:
        """Deterministic plain-text report."""
        self.normalize()
        verdict = "CLEAN" if self.clean else f"{len(self.findings)} finding(s)"
        lines = [
            f"lint: {len(self.files)} file(s), {self.units_checked} kernel "
            f"unit(s) — {verdict}",
        ]
        if self.suppressed:
            breakdown = ""
            if self.suppressed_codes:
                per_code = ", ".join(
                    f"{code} x{self.suppressed_codes[code]}"
                    for code in sorted(self.suppressed_codes)
                )
                breakdown = f" ({per_code})"
            lines.append(
                f"  {self.suppressed} finding(s) suppressed by "
                f"'# repro: noqa' comments{breakdown}"
            )
        for finding in self.findings:
            lines.append("  " + finding.render())
        if self.clean:
            lines.append(
                "  no statically-detectable barrier divergence, occupancy "
                "violations, stale spins or unreleased paths"
            )
        return "\n".join(lines)

    def merge(self, other: "LintReport") -> "LintReport":
        """Fold another report into this one (for per-file linting)."""
        self.files.extend(other.files)
        self.units_checked += other.units_checked
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        for code, count in other.suppressed_codes.items():
            self.suppressed_codes[code] = (
                self.suppressed_codes.get(code, 0) + count
            )
        return self.normalize()
