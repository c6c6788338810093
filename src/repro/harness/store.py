"""Persist experiment results as versioned JSON.

Sweeps take minutes at full fidelity; storing them lets reports, plots
and regression comparisons rerun instantly::

    sweep = experiments.fig11(rounds=200)
    save_sweep(sweep, "out/fig11.json")
    ...
    sweep = load_sweep("out/fig11.json")

Every stored result uses the shared versioned envelope
(:mod:`repro.serialization`): ``{"schema": V, "kind": K, ...}``.  Files
fail loudly — a typed :class:`~repro.errors.ExperimentError` naming the
file and the found/expected versions — instead of silently misparsing
after a format change.  :func:`load_result` dispatches on ``kind`` for
any stored result (sweeps, chaos reports, sanitize reports).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import ExperimentError
from repro.harness.experiments import SweepResult
from repro.serialization import RESULT_SCHEMA_VERSION

__all__ = ["SCHEMA_VERSION", "load_result", "load_sweep", "save_sweep"]

#: the envelope version this build writes (see repro.serialization).
SCHEMA_VERSION = RESULT_SCHEMA_VERSION


def _read(path: Path, what: str) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentError(f"cannot read {what} from {path}: {exc}") from exc


def save_sweep(sweep: SweepResult, path: Union[str, Path]) -> Path:
    """Serialize a sweep (totals + compute-only baselines) to JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(sweep.to_json())
    return path


def load_sweep(path: Union[str, Path]) -> SweepResult:
    """Load a sweep previously written by :func:`save_sweep`.

    Accepts both the current envelope and the legacy schema-1 store
    format (same body, earlier version stamp).
    """
    path = Path(path)
    return SweepResult.from_json(_read(path, "sweep"), source=str(path))


def load_result(path: Union[str, Path]):
    """Load any stored result, dispatching on the envelope's ``kind``.

    Returns a :class:`~repro.harness.experiments.SweepResult`,
    :class:`~repro.faults.chaos.ChaosReport`,
    :class:`~repro.sanitize.report.SanitizeReport` or
    :class:`~repro.staticcheck.report.LintReport` according to what the
    file says it holds.
    """
    path = Path(path)
    text = _read(path, "result")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ExperimentError(f"cannot read result from {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ExperimentError(f"{path} does not contain a result envelope")
    kind = payload.get("kind")
    if kind == "sweep":
        return SweepResult.from_json(text, source=str(path))
    if kind == "chaos-report":
        from repro.faults.chaos import ChaosReport

        return ChaosReport.from_json(text, source=str(path))
    if kind == "sanitize-report":
        from repro.sanitize.report import SanitizeReport

        return SanitizeReport.from_json(text, source=str(path))
    if kind == "lint-report":
        from repro.staticcheck.report import LintReport

        return LintReport.from_json(text, source=str(path))
    raise ExperimentError(
        f"{path} holds unknown result kind {kind!r}; expected one of: "
        "sweep, chaos-report, sanitize-report, lint-report"
    )
