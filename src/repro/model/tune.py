"""Workload tuning: cost-model-backed strategy advice (``repro tune``).

This module is the one answer to "which strategy is fastest for this
workload?" — the paper's future-work item, built from its own models.
:func:`predict_all` uses Eqs. 3–9 to predict the total kernel time
under every synchronization strategy for a device's calibrated,
topology-resolved timings.  :func:`tune_workload` turns the fastest
prediction into an *auditable report* against the strategy a user
actually configured and — when the configured strategy diverges from
the model's pick — emits an ``SC100 suboptimal-strategy`` advisory as
a regular :class:`~repro.staticcheck.report.StaticFinding`, so CI
surfaces tuning drift through the same finding pipeline as the linter.

With ``measure=True`` the report also validates the model against the
simulator: every modeled strategy runs the workload's microbenchmark
through the cached parallel executor alongside a ``null`` (compute-only)
baseline, and the measured per-round synchronization overheads
(``total - null``) ride along for comparison with the predictions —
the paper's §5.4 model-vs-measurement check, per workload.

Serialization uses the shared schema-3 envelope under the
``tune-report`` kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.algorithms.base import require_int
from repro.errors import ConfigError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.model.barrier_costs import MODELED_BARRIERS, barrier_cost
from repro.model.kernel_time import (
    cpu_explicit_time,
    cpu_implicit_time,
    gpu_sync_time,
)
from repro.staticcheck.report import StaticFinding

__all__ = ["MODELED_STRATEGIES", "TuneReport", "predict_all", "tune_workload"]

Number = Union[int, float]

#: the host barriers and the equation that prices a whole run under
#: each (Eqs. 3 and 4).
_HOST_MODELS = {
    "cpu-explicit": cpu_explicit_time,
    "cpu-implicit": cpu_implicit_time,
}

#: every strategy the cost model predicts (Eqs. 3–9); all are
#: registered under the same names, so the measured sweep can run each.
MODELED_STRATEGIES = (*_HOST_MODELS, *MODELED_BARRIERS)


def predict_all(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    num_blocks: int,
    config: Optional[DeviceConfig] = None,
) -> Dict[str, float]:
    """Predicted total time (ns) for every strategy that can run this grid.

    ``compute_ns`` is the per-round computation time, or a sequence of
    per-round costs.  ``config`` (default: the ``gtx280`` preset) supplies
    the calibrated timings *and* the topology, so multi-domain presets
    (``dual_gpu``, ``riscv_cluster_1024``) charge the interconnect
    crossings their barriers would really pay.  For a what-if on other
    timings, pass ``dataclasses.replace(config, timings=...)``.

    A strategy whose :meth:`~repro.sync.base.SyncStrategy.max_blocks`
    on ``config`` is below ``num_blocks`` is left out: ``run`` would
    reject that grid with :class:`~repro.errors.OccupancyError`.  Bad
    inputs raise :class:`~repro.errors.ConfigError`.
    """
    from repro.sync import get_strategy  # repro.sync imports repro.model

    require_int("num_blocks", num_blocks, 1)
    cfg = get_preset("gtx280") if config is None else config
    if not isinstance(cfg, DeviceConfig):
        raise ConfigError(f"config must be a DeviceConfig, got {cfg!r}")
    t = cfg.timings
    predictions: Dict[str, float] = {}
    for name in MODELED_STRATEGIES:
        if get_strategy(name).max_blocks(cfg) < num_blocks:
            continue
        if name in _HOST_MODELS:
            predictions[name] = _HOST_MODELS[name](rounds, compute_ns, t)
        else:
            barrier_ns = barrier_cost(name, num_blocks, cfg)
            predictions[name] = gpu_sync_time(rounds, compute_ns, barrier_ns, t)
    return predictions


@dataclass
class TuneReport:
    """One workload tuned against one device preset."""

    rounds: int
    compute_ns: float  #: per-round computation time the model assumes
    num_blocks: int
    preset: str
    configured: str  #: the strategy the user runs today
    recommended: str  #: the model's pick
    predictions: Dict[str, float]  #: strategy → predicted total ns
    rho: float  #: compute fraction under the CPU-implicit baseline
    #: the ``SC100`` advisory; ``None`` when the configuration is optimal.
    advisory: Optional[StaticFinding] = None
    #: measured sync overhead (ns, ``total - null``) per strategy, when
    #: the report was built with ``measure=True``.
    measured_sync_ns: Dict[str, int] = field(default_factory=dict)
    #: compute-only baseline total (ns) of the measured sweep.
    measured_null_ns: Optional[int] = None

    @property
    def optimal(self) -> bool:
        """True when the configured strategy is the model's pick."""
        return self.configured == self.recommended

    @property
    def predicted_speedup(self) -> float:
        """Predicted time ratio configured/recommended (1.0 = optimal)."""
        return self.predictions[self.configured] / self.predictions[self.recommended]

    @property
    def measured_best(self) -> Optional[str]:
        """Strategy with the lowest measured sync overhead, if measured."""
        if not self.measured_sync_ns:
            return None
        return min(self.measured_sync_ns, key=lambda s: self.measured_sync_ns[s])

    def exit_code(self, strict: bool = False) -> int:
        """CLI exit status — advisory by default, gating under strict."""
        if strict and not self.optimal:
            return 1
        return 0

    def ranking(self) -> List[Any]:
        """All ``(strategy, predicted_ns)`` sorted fastest-first."""
        return sorted(self.predictions.items(), key=lambda kv: kv[1])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "compute_ns": self.compute_ns,
            "num_blocks": self.num_blocks,
            "preset": self.preset,
            "configured": self.configured,
            "recommended": self.recommended,
            "optimal": self.optimal,
            "predicted_speedup": self.predicted_speedup,
            "rho": self.rho,
            "predictions": {
                s: self.predictions[s] for s in sorted(self.predictions)
            },
            "advisory": self.advisory.to_dict() if self.advisory else None,
            "measured_sync_ns": {
                s: self.measured_sync_ns[s]
                for s in sorted(self.measured_sync_ns)
            },
            "measured_null_ns": self.measured_null_ns,
            "measured_best": self.measured_best,
        }

    def to_json(self) -> str:
        """Deterministic JSON in the shared schema-3 envelope."""
        from repro.serialization import dump_result

        return dump_result("tune-report", self.to_dict())

    def render(self) -> str:
        """Deterministic plain-text report."""
        lines = [
            f"tune: preset={self.preset}, {self.rounds} round(s) x "
            f"{self.compute_ns:g} ns compute, {self.num_blocks} block(s) "
            f"(rho={self.rho:.3f})",
            f"  configured:  {self.configured} "
            f"(predicted {self.predictions[self.configured]:.0f} ns)",
            f"  recommended: {self.recommended} "
            f"(predicted {self.predictions[self.recommended]:.0f} ns)",
        ]
        for strategy, predicted in self.ranking():
            marker = " <- configured" if strategy == self.configured else ""
            lines.append(f"    {strategy:13s} {predicted:>14.0f} ns{marker}")
        if self.measured_sync_ns:
            lines.append(
                f"  measured sync overhead (null baseline "
                f"{self.measured_null_ns} ns):"
            )
            for strategy in sorted(
                self.measured_sync_ns, key=lambda s: self.measured_sync_ns[s]
            ):
                lines.append(
                    f"    {strategy:13s} "
                    f"{self.measured_sync_ns[strategy]:>14d} ns"
                )
        if self.advisory is not None:
            lines.append("  " + self.advisory.render())
        else:
            lines.append(
                "  configured strategy matches the cost-model recommendation"
            )
        return "\n".join(lines)


def _measure(
    rounds: int, num_blocks: int, preset: str, strategies, executor=None
) -> Dict[str, int]:
    """Measured totals: ``null`` baseline plus every strategy named.

    Mirrors the Fig. 11 sweep's payload shape so results share the
    executor's content-addressed cache with the benchmarks.
    """
    from repro.parallel import Executor
    from repro.serialization import device_config_to_dict

    device = device_config_to_dict(get_preset(preset))
    spec = {
        "name": "micro",
        "rounds": rounds,
        "num_blocks_hint": num_blocks,
        "threads_per_block": 64,
    }
    names = ["null", *strategies]
    payloads = [
        {
            "algorithm": spec,
            "strategy": name,
            "num_blocks": num_blocks,
            "device": device,
            "threads_per_block": 64,
        }
        for name in names
    ]
    ex = executor if executor is not None else Executor(jobs=1)
    totals = ex.map("run-total", payloads)
    return dict(zip(names, (int(t) for t in totals)))


def tune_workload(
    rounds: int,
    compute_ns: float,
    num_blocks: int,
    configured: str,
    preset: str = "gtx280",
    *,
    measure: bool = False,
    measure_rounds: Optional[int] = None,
    executor=None,
) -> TuneReport:
    """Tune one workload: predictions, recommendation, SC100 advisory.

    ``configured`` is the strategy the workload runs today; it must be
    one of :data:`MODELED_STRATEGIES`.  Only strategies that can run the
    grid on ``preset`` are ranked (:func:`predict_all`).  ``measure=True``
    additionally runs the workload's microbenchmark under every ranked
    strategy (``measure_rounds`` caps the simulated rounds; default
    ``min(rounds, 50)``) through ``executor`` — or a throwaway inline
    executor — and reports measured sync overheads next to the
    predictions.

    Before anything runs, raises the strategy's
    :class:`~repro.errors.OccupancyError` when the configured strategy
    cannot run the grid, or when ``measure=True`` asks for a grid the
    compute-only ``null`` baseline cannot run.
    """
    from repro.sync import get_strategy  # repro.sync imports repro.model

    if configured not in MODELED_STRATEGIES:
        raise ConfigError(
            f"cannot tune unmodeled strategy {configured!r}; "
            f"modeled: {', '.join(MODELED_STRATEGIES)}"
        )
    cfg = get_preset(preset)
    predictions = predict_all(rounds, compute_ns, num_blocks, cfg)
    if configured not in predictions:
        get_strategy(configured).validate_grid(cfg, num_blocks)
    if measure:
        get_strategy("null").validate_grid(cfg, num_blocks)
    recommended = min(predictions, key=lambda s: predictions[s])
    advisory: Optional[StaticFinding] = None
    if configured != recommended:
        ratio = predictions[configured] / predictions[recommended]
        advisory = StaticFinding(
            code="SC100",
            message=(
                f"configured strategy '{configured}' is predicted "
                f"{ratio:.2f}x slower than '{recommended}' for this "
                f"workload on preset '{preset}'"
            ),
            file=f"<workload:{preset}>",
            line=0,
            unit=configured,
        )
    report = TuneReport(
        rounds=rounds,
        compute_ns=compute_ns,
        num_blocks=num_blocks,
        preset=preset,
        configured=configured,
        recommended=recommended,
        predictions=predictions,
        rho=compute_ns * rounds / predictions["cpu-implicit"],
        advisory=advisory,
    )
    if measure:
        capped = measure_rounds or min(rounds, 50)
        totals = _measure(capped, num_blocks, preset, predictions, executor)
        null = totals.pop("null")
        report.measured_null_ns = null
        report.measured_sync_ns = {
            name: total - null for name, total in totals.items()
        }
    return report
