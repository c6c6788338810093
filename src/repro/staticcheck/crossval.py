"""Cross-validation: the linter vs. the dynamic sanitizer's mutants.

The repository ships deliberately-broken barrier strategies
(:mod:`repro.sanitize.mutants`) that the *dynamic* sanitizer flags
after running fuzzed schedules.  This module asserts the static linter
catches the same defects **without executing a single simulated
cycle**, and that the two taxonomies agree: each mutant's expected
``SC`` code must be registry-linked (:mod:`repro.findings`) to the
dynamic bug class the sanitizer reports for it.

Since the repair engine (:mod:`repro.staticcheck.repair`), the harness
also closes the loop in the other direction: :func:`repair_mutant`
drives each seeded mutant through ``fix_source`` and
:func:`verify_repairs` proves the repaired classes are lint-clean,
sanitizer-clean, and produce verified results — every ``broken-*``
mutant must be *repairable back to passing*, not merely detectable.

This is the linter's ground truth: if a future rule change stops
flagging a mutant — or starts flagging a clean shipped strategy — the
cross-validation tests fail before the rule ships.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set

from repro.findings import FINDING_CODES
from repro.staticcheck.engine import LintError, lint_source, lint_strategy
from repro.staticcheck.repair import FixResult, fix_source
from repro.staticcheck.report import LintReport, StaticFinding

__all__ = [
    "MUTANT_EXPECTATIONS",
    "MutantExpectation",
    "MutantRepair",
    "crossval_mutant",
    "crossval_all",
    "expectation_links_ok",
    "repair_mutant",
    "repaired_findings",
    "verify_repairs",
]


@dataclass(frozen=True)
class MutantExpectation:
    """What both analyzers must say about one seeded mutant."""

    mutant: str  #: registered strategy name (``broken-*``)
    static: Set[str]  #: exact set of SC codes the linter must report
    dynamic: Set[str]  #: dynamic bug classes the sanitizer reports


#: the seeded-mutant ground truth.  Keys are registry names from
#: :mod:`repro.sanitize.mutants`; the ``dynamic`` sets mirror that
#: module's docstrings (and the sanitizer's own mutant tests).
MUTANT_EXPECTATIONS: Dict[str, MutantExpectation] = {
    exp.mutant: exp
    for exp in (
        MutantExpectation(
            mutant="broken-lockfree-noscatter",
            static={"SC008"},
            dynamic={"barrier-deadlock"},
        ),
        MutantExpectation(
            mutant="broken-simple-undercount",
            static={"SC005"},
            dynamic={"premature-release"},
        ),
        MutantExpectation(
            mutant="broken-simple-skipround",
            static={"SC001"},
            dynamic={"barrier-divergence"},
        ),
    )
}


def expectation_links_ok(exp: MutantExpectation) -> bool:
    """True when every expected SC code is registry-linked to (at least
    one of) the mutant's dynamic bug classes — the static and dynamic
    taxonomies agree this is the same defect."""
    from repro.findings import by_name

    dynamic_codes = {by_name(name).code for name in exp.dynamic}
    for sc in exp.static:
        related = set(FINDING_CODES[sc].related)
        if not related & dynamic_codes:
            return False
    return True


def crossval_mutant(name: str) -> LintReport:
    """Lint one registered mutant strategy class by registry name.

    ``respect_noqa=False``: the mutant files annotate their seeded bugs
    with ``# repro: noqa`` so ordinary tree-wide lint runs stay clean,
    but cross-validation must still see the defects.
    """
    from repro.sync.base import get_strategy

    strategy = get_strategy(name)
    return lint_strategy(strategy, respect_noqa=False)


def crossval_all() -> Dict[str, LintReport]:
    """Lint every mutant in :data:`MUTANT_EXPECTATIONS`.

    Importing :mod:`repro.sanitize.mutants` registers the mutants.
    """
    import repro.sanitize.mutants  # noqa: F401  (registration side effect)

    return {name: crossval_mutant(name) for name in MUTANT_EXPECTATIONS}


def verify_expectations() -> List[str]:
    """Run the full cross-validation; return human-readable failures.

    Empty list ⇒ every mutant is statically flagged with exactly its
    expected SC codes and every static/dynamic link holds.
    """
    problems: List[str] = []
    for name, report in crossval_all().items():
        exp = MUTANT_EXPECTATIONS[name]
        got = set(report.codes())
        if got != exp.static:
            problems.append(
                f"{name}: expected static codes {sorted(exp.static)}, "
                f"linter reported {sorted(got)}"
            )
        if not expectation_links_ok(exp):
            problems.append(
                f"{name}: static codes {sorted(exp.static)} are not "
                f"registry-linked to dynamic classes {sorted(exp.dynamic)}"
            )
    return problems


# ---------------------------------------------------------------------------
# Repair cross-validation: every mutant must be fixable back to passing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MutantRepair:
    """One seeded mutant driven through the auto-repair engine."""

    mutant: str  #: registry name (``broken-*``)
    cls_name: str  #: the mutant class the repair targets
    fix: FixResult  #: full-file repair result (class-scoped ``within``)
    repaired_cls: type  #: the class rebuilt from the repaired source


def repair_mutant(name: str) -> MutantRepair:
    """Auto-repair one registered mutant and rebuild its class.

    Runs :func:`fix_source` over the mutant's defining file with
    ``respect_noqa=False`` (the seeded bugs are annotated) and the fix
    scope restricted to the mutant class's own line span, then executes
    the repaired source in a scratch namespace to recover a runnable
    class.  Executing the module re-runs its ``register_strategy``
    calls, so the strategy registry is snapshotted and restored — a
    repair experiment must never swap the registered mutants out from
    under the sanitizer's ground truth.
    """
    from repro.sync.base import _REGISTRY, get_strategy

    cls = type(get_strategy(name))
    source_file = inspect.getsourcefile(cls)
    if source_file is None:  # pragma: no cover - mutants ship as files
        raise LintError(f"cannot locate source for mutant {name}")
    lines, start = inspect.getsourcelines(cls)
    file_source = Path(source_file).read_text(encoding="utf-8")
    result = fix_source(
        file_source,
        source_file,
        respect_noqa=False,
        within=(start, start + len(lines) - 1),
    )
    snapshot = dict(_REGISTRY)
    namespace: Dict[str, object] = {"__name__": f"<repaired:{name}>"}
    try:
        code = compile(result.fixed, f"<repaired:{name}>", "exec")
        exec(code, namespace)  # noqa: S102 - our own repaired source
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(snapshot)
    repaired = namespace[cls.__name__]
    assert isinstance(repaired, type)
    return MutantRepair(
        mutant=name, cls_name=cls.__name__, fix=result, repaired_cls=repaired
    )


def repaired_findings(repair: MutantRepair) -> List[StaticFinding]:
    """Findings the linter still attributes to the repaired class.

    Re-lints the repaired *source text* (the exec'd class has no file
    for ``lint_strategy`` to read) and keeps findings whose unit sits
    inside the mutant class — robust to the line drift repairs cause.
    """
    report = lint_source(
        repair.fix.fixed, f"<repaired:{repair.mutant}>", respect_noqa=False
    )
    return [
        f
        for f in report.findings
        if f.unit == repair.cls_name
        or f.unit.startswith(repair.cls_name + ".")
    ]


def verify_repairs(
    *, schedules: int = 10, rounds: int = 4, num_blocks: int = 8
) -> List[str]:
    """Prove every seeded mutant is repairable back to passing.

    For each ``broken-*`` mutant: the engine must apply at least one fix
    for the expected SC code, the repaired class must lint clean, the
    dynamic sanitizer must find nothing across ``schedules``
    fuzzed interleavings, and the repaired barrier must produce verified
    results.  Returns human-readable problems; empty ⇒ the repair loop
    is closed.
    """
    from repro.algorithms.microbench import MeanMicrobench
    from repro.harness.runner import run
    from repro.sanitize.sanitizer import sanitize_run

    import repro.sanitize.mutants  # noqa: F401  (registration side effect)

    problems: List[str] = []
    for name, exp in MUTANT_EXPECTATIONS.items():
        repair = repair_mutant(name)
        applied_codes = {a.code for a in repair.fix.applied}
        if not exp.static <= applied_codes:
            problems.append(
                f"{name}: expected fixes for {sorted(exp.static)}, "
                f"engine applied {sorted(applied_codes)}"
            )
            continue
        leftover = repaired_findings(repair)
        if leftover:
            problems.append(
                f"{name}: repaired class still lints dirty: "
                + ", ".join(f.code for f in leftover)
            )
            continue
        sanitized = sanitize_run(
            strategy=repair.repaired_cls(),
            num_blocks=num_blocks,
            schedules=schedules,
        )
        if not sanitized.clean:
            problems.append(
                f"{name}: repaired strategy still flagged by the "
                "sanitizer: "
                + ", ".join(sorted({f.kind for f in sanitized.findings}))
            )
            continue
        algo = MeanMicrobench(rounds=rounds, num_blocks_hint=num_blocks)
        outcome = run(algo, repair.repaired_cls(), num_blocks)
        if outcome.verified is not True:
            problems.append(f"{name}: repaired strategy fails verification")
    return problems
