"""The shared finding taxonomy for all correctness tooling.

Both correctness layers — the *dynamic* barrier sanitizer
(:mod:`repro.sanitize`, which must execute a schedule to find a bug)
and the *static* barrier-protocol linter (:mod:`repro.staticcheck`,
which finds it from the AST before a single simulated cycle runs) —
report against one registry of :class:`FindingCode` entries, so CLI
output, stored reports and the docs render every finding the same way:

    [SC003 error] stale-spin-read: <message> (paper §5; re-read the cell)
    [DYN002 error] barrier-deadlock: <message> (paper §5)

Static codes are ``SC001``–``SC008``; dynamic bug classes keep their
historical slug names (``barrier-deadlock`` …) and carry ``DYN00x``
codes.  ``related`` links each static code to the dynamic classes the
same defect produces at runtime — the cross-validation harness
(:mod:`repro.staticcheck.crossval`) holds the two layers to that
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "DYNAMIC_CODES",
    "FINDING_CODES",
    "FindingCode",
    "SEVERITIES",
    "STATIC_CODES",
    "by_name",
    "format_finding",
    "get_code",
]

#: recognised severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "advice")


@dataclass(frozen=True)
class FindingCode:
    """One entry of the shared static/dynamic finding taxonomy."""

    code: str  #: stable identifier, e.g. ``"SC001"`` or ``"DYN002"``
    name: str  #: human slug, e.g. ``"barrier-divergence"``
    severity: str  #: one of :data:`SEVERITIES`
    paper_ref: str  #: the paper section the hazard comes from
    summary: str  #: one-line description of the defect
    remedy: str  #: one-line fix advice
    origin: str  #: ``"static"`` (linter) or ``"dynamic"`` (sanitizer)
    #: codes of the counterpart layer that the same defect produces —
    #: a static code's related dynamic classes and vice versa.
    related: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"{self.code}: unknown severity {self.severity!r}; "
                f"known: {', '.join(SEVERITIES)}"
            )
        if self.origin not in ("static", "dynamic"):
            raise ValueError(
                f"{self.code}: origin must be 'static' or 'dynamic', "
                f"got {self.origin!r}"
            )


_STATIC = (
    FindingCode(
        code="SC001",
        name="barrier-divergence",
        severity="error",
        paper_ref="§4",
        summary=(
            "a barrier call is bypassed on a block-identity-dependent "
            "path, so the grid disagrees on how many rounds were "
            "synchronized"
        ),
        remedy="make every block execute the same barrier sequence",
        origin="static",
        related=("DYN003", "DYN002"),
    ),
    FindingCode(
        code="SC002",
        name="static-occupancy-violation",
        severity="error",
        paper_ref="§5",
        summary=(
            "grid size literal exceeds the device's SM count; "
            "non-preemptive blocks beyond co-residency starve a "
            "device-side barrier"
        ),
        remedy="keep num_blocks <= the device preset's SM count",
        origin="static",
        related=("DYN001",),
    ),
    FindingCode(
        code="SC003",
        name="stale-spin-read",
        severity="error",
        paper_ref="§5",
        summary=(
            "spin predicate reads a cached local instead of re-fetching "
            "the GlobalArray cell, so the awaited store is never observed "
            "(the volatile bug)"
        ),
        remedy="read array.data inside the spin predicate every poll",
        origin="static",
        related=("DYN002",),
    ),
    FindingCode(
        code="SC004",
        name="unguarded-atomic-arrival",
        severity="error",
        paper_ref="§5.1",
        summary=(
            "an atomic arrival on a loop-invariant cell can execute more "
            "than once per block per round (the leading-thread guard is "
            "missing), over-counting goalVal"
        ),
        remedy=(
            "guard the atomic so each block's leading thread adds "
            "exactly once per round"
        ),
        origin="static",
        related=("DYN004",),
    ),
    FindingCode(
        code="SC005",
        name="goalval-anti-pattern",
        severity="warning",
        paper_ref="§5.1",
        summary=(
            "goalVal protocol drift: the arrival counter is reset per "
            "round (the rejected §5.1 ablation) or the goal is not a "
            "whole multiple of the grid size (releases early)"
        ),
        remedy="accumulate goalVal by num_blocks each round, never reset",
        origin="static",
        related=("DYN004",),
    ),
    FindingCode(
        code="SC006",
        name="shared-memory-race",
        severity="error",
        paper_ref="§2",
        summary=(
            "two shared-memory accesses to the same array at different "
            "indices with no intervening __syncthreads()"
        ),
        remedy="separate conflicting shared accesses with syncthreads()",
        origin="static",
        related=("DYN006",),
    ),
    FindingCode(
        code="SC007",
        name="undersized-flag-array",
        severity="error",
        paper_ref="§5.3",
        summary=(
            "a per-block flag array indexed by block id is allocated "
            "with a size that does not scale with num_blocks"
        ),
        remedy="size lock-free flag arrays by the prepared num_blocks",
        origin="static",
        related=("DYN006", "DYN002"),
    ),
    FindingCode(
        code="SC008",
        name="unreleased-sync-path",
        severity="error",
        paper_ref="§5.3",
        summary=(
            "an acquired resource or awaited release flag has no "
            "reachable release on some path (e.g. the Fig. 9 scatter "
            "store is missing), so waiters spin forever"
        ),
        remedy=(
            "ensure every Acquire has a dominating Release and every "
            "awaited flag a reachable release store"
        ),
        origin="static",
        related=("DYN002",),
    ),
    FindingCode(
        code="SC100",
        name="suboptimal-strategy",
        severity="advice",
        paper_ref="§7",
        summary=(
            "the configured barrier strategy diverges from the Eq. 3-9 "
            "cost model's recommendation for the workload under the "
            "preset's calibrated, topology-resolved timings"
        ),
        remedy=(
            "switch to the recommended strategy, or validate the "
            "configured one with a measured sweep (repro tune --measure)"
        ),
        origin="static",
    ),
)

_DYNAMIC = (
    FindingCode(
        code="DYN001",
        name="occupancy-deadlock",
        severity="error",
        paper_ref="§5",
        summary=(
            "grid exceeds co-resident capacity; a device barrier would "
            "starve (non-preemptive blocks, one block per SM)"
        ),
        remedy="shrink the grid or switch to a host-side barrier",
        origin="dynamic",
        related=("SC002",),
    ),
    FindingCode(
        code="DYN002",
        name="barrier-deadlock",
        severity="error",
        paper_ref="§5",
        summary=(
            "blocks entered a barrier round and can never leave it "
            "(e.g. a dropped release/scatter store)"
        ),
        remedy="release every waiter on every protocol path",
        origin="dynamic",
        related=("SC001", "SC003", "SC007", "SC008"),
    ),
    FindingCode(
        code="DYN003",
        name="barrier-divergence",
        severity="error",
        paper_ref="§4",
        summary=(
            "blocks disagree on which barrier rounds they entered "
            "(a block skipped a round others synchronized on)"
        ),
        remedy="make every block execute the same barrier sequence",
        origin="dynamic",
        related=("SC001",),
    ),
    FindingCode(
        code="DYN004",
        name="premature-release",
        severity="error",
        paper_ref="§5.1",
        summary=(
            "a block exited a barrier round before every block entered "
            "it (e.g. an under-counted goal value)"
        ),
        remedy="make the release condition require all N arrivals",
        origin="dynamic",
        related=("SC004", "SC005"),
    ),
    FindingCode(
        code="DYN005",
        name="round-overlap",
        severity="error",
        paper_ref="§4",
        summary=(
            "a block executed round r+1 work while round r was "
            "incomplete — conflicting accesses with no intervening grid "
            "barrier"
        ),
        remedy="separate dependent rounds with a grid-wide barrier",
        origin="dynamic",
        related=("SC001", "SC005"),
    ),
    FindingCode(
        code="DYN006",
        name="data-race",
        severity="error",
        paper_ref="§2",
        summary=(
            "different blocks touched the same global-memory cell in the "
            "same barrier epoch, at least one writing, outside any "
            "barrier protocol"
        ),
        remedy="order conflicting accesses with a barrier or atomics",
        origin="dynamic",
        related=("SC006", "SC007"),
    ),
    FindingCode(
        code="DYN007",
        name="verification-failed",
        severity="error",
        paper_ref="§7",
        summary=(
            "the algorithm's output does not match its reference "
            "(usually a downstream symptom of one of the classes above)"
        ),
        remedy="fix the upstream synchronization finding first",
        origin="dynamic",
    ),
    FindingCode(
        code="DYN008",
        name="simulation-error",
        severity="error",
        paper_ref="§5",
        summary=(
            "the run aborted inside the simulator (protocol assertion, "
            "bad memory access, …) before the sanitizer could finish "
            "observing it"
        ),
        remedy="replay the printed seed and fix the aborting protocol",
        origin="dynamic",
    ),
)

#: every registered code, keyed by its stable ``code`` field.
FINDING_CODES: Dict[str, FindingCode] = {
    entry.code: entry for entry in _STATIC + _DYNAMIC
}

#: the linter's codes in rule order.
STATIC_CODES: Tuple[str, ...] = tuple(e.code for e in _STATIC)

#: the sanitizer's codes in bug-class order.
DYNAMIC_CODES: Tuple[str, ...] = tuple(e.code for e in _DYNAMIC)

_BY_NAME: Dict[str, FindingCode] = {}
for _entry in _STATIC + _DYNAMIC:
    # Dynamic and static entries may share a slug (barrier-divergence);
    # name lookup prefers the dynamic entry for backward compatibility
    # with the sanitizer's kind strings, which predate the registry.
    _BY_NAME.setdefault(_entry.name, _entry)
for _entry in _DYNAMIC:
    _BY_NAME[_entry.name] = _entry


def get_code(code: str) -> FindingCode:
    """Registry entry for a stable code (``SC00x`` / ``DYN00x``)."""
    try:
        return FINDING_CODES[code]
    except KeyError:
        raise KeyError(
            f"unknown finding code {code!r}; "
            f"known: {', '.join(sorted(FINDING_CODES))}"
        ) from None


def by_name(name: str) -> FindingCode:
    """Registry entry for a slug name (sanitizer ``kind`` strings)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown finding name {name!r}; "
            f"known: {', '.join(sorted(_BY_NAME))}"
        ) from None


def format_finding(code: FindingCode, message: str, suffix: str = "") -> str:
    """The one true finding line, shared by static and dynamic renders.

    ``[CODE severity] name: message (paper §ref[; suffix])``
    """
    tail = f"paper {code.paper_ref}"
    if suffix:
        tail = f"{tail}; {suffix}"
    return (
        f"[{code.code} {code.severity}] {code.name}: {message} ({tail})"
    )
