"""Experiment drivers: one function per paper table/figure (DESIGN.md §4).

Every driver returns a plain, documented data structure so the report
renderer, the pytest benches and the shape-assertion tests all consume
the same numbers.  Problem sizes default to the calibrated ones
(:mod:`repro.algorithms.costs`); block sweeps default to a step of 3 to
keep pure-Python simulation time reasonable (the paper sweeps 9–30 in
steps of 1; pass ``step=1`` for the full grid).

Every driver takes an ``executor=`` (:class:`repro.parallel.Executor`):
sweep cells are independent seeded simulations, so they shard across
worker processes and memoize in the content-addressed result cache,
with output bit-identical to the serial run (docs/parallel.md).

Every driver also takes a ``resume=`` run-id: a journaled sweep that was
interrupted (:class:`~repro.errors.InterruptedSweepError`) replays its
completed cells from the write-ahead journal and executes only the
remainder — the resumed result is bit-identical to an uninterrupted run
(docs/resilience.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import (
    BitonicSort,
    FFT,
    RoundAlgorithm,
    SmithWaterman,
)
from repro.errors import ConfigError, ExperimentError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.harness.phases import Breakdown, probe_barrier_cost
from repro.model.barrier_costs import MODELED_BARRIERS, barrier_cost
from repro.parallel import BatchStats, Executor
from repro.serialization import (
    device_config_to_dict,
    dump_result,
    parse_result,
    require,
    shape_errors,
)

__all__ = [
    "SweepResult",
    "ALGORITHM_FACTORIES",
    "GPU_STRATEGIES",
    "ALL_STRATEGIES",
    "make_algorithm",
    "table1",
    "fig11",
    "algorithm_sweep",
    "fig13",
    "fig14",
    "fig15",
    "headline",
    "model_validation",
]

#: strategies compared in the algorithm studies (§7.2: CPU explicit is
#: dropped after the micro-benchmark because it is never competitive).
GPU_STRATEGIES = ("gpu-simple", "gpu-tree-2", "gpu-tree-3", "gpu-lockfree")
ALL_STRATEGIES = ("cpu-implicit",) + GPU_STRATEGIES

#: default constructors at the calibrated problem sizes.
ALGORITHM_FACTORIES: Dict[str, Callable[[], RoundAlgorithm]] = {
    "fft": lambda: FFT(n=2**15),
    "swat": lambda: SmithWaterman(1024, 1024),
    "bitonic": lambda: BitonicSort(n=2**14),
}


def make_algorithm(name: str) -> RoundAlgorithm:
    """Instantiate one of the paper's three workloads at default size."""
    try:
        return ALGORITHM_FACTORIES[name]()
    except KeyError:
        raise ExperimentError(
            f"unknown algorithm {name!r}; known: "
            f"{', '.join(sorted(ALGORITHM_FACTORIES))}"
        ) from None


def _algorithm_spec(name: str) -> Dict[str, Any]:
    """Validate a workload name and return its worker spec."""
    if name not in ALGORITHM_FACTORIES:
        raise ExperimentError(
            f"unknown algorithm {name!r}; known: "
            f"{', '.join(sorted(ALGORITHM_FACTORIES))}"
        )
    return {"name": name}


def _block_counts(
    blocks: Optional[Sequence[int]], default: Sequence[int]
) -> List[int]:
    """A sweep's block counts: ``blocks``, or ``default`` when ``None``."""
    xs = list(default if blocks is None else blocks)
    if not xs:
        raise ConfigError("empty block sweep: blocks names no block count")
    return xs


def _cell(
    algorithm: Dict[str, Any],
    strategy: str,
    num_blocks: int,
    device: Dict[str, Any],
) -> Dict[str, Any]:
    """One ``run-total`` worker payload (``strategy="null"`` = baseline)."""
    return {
        "algorithm": algorithm,
        "strategy": strategy,
        "num_blocks": num_blocks,
        "device": device,
    }


def _totals(
    executor: Optional[Executor],
    payloads: List[Dict[str, Any]],
    resume: Optional[str] = None,
) -> Tuple[List[int], Optional[BatchStats]]:
    """Run every cell through the (possibly parallel, cached) executor.

    With ``executor=None`` a throwaway inline executor runs the same
    worker functions serially in-process — the reference path parallel
    runs must reproduce bit-for-bit.  ``resume`` replays a journaled
    earlier invocation of the same batch (see
    :meth:`repro.parallel.Executor.map`).  Returns the totals and the
    batch's provenance.
    """
    ex = executor if executor is not None else Executor(jobs=1)
    totals = ex.map("run-total", payloads, resume=resume)
    return totals, ex.last_batch


def _stamp(sweep: "SweepResult", stats: Optional[BatchStats]) -> "SweepResult":
    """Copy a batch's provenance onto the sweep it produced."""
    if stats is not None:
        sweep.retries = stats.retries
        sweep.resumed_from = stats.resumed_from
    return sweep


@dataclass
class SweepResult:
    """A block-count sweep of one algorithm over several strategies."""

    algorithm: str
    blocks: List[int]
    #: strategy → total kernel time (ns) per block count.
    totals: Dict[str, List[int]] = field(default_factory=dict)
    #: compute-only (null strategy) totals per block count.
    nulls: List[int] = field(default_factory=list)
    # -- partial-failure provenance (supervised executor batches) --
    #: process-level re-executions the supervisor forced (worker
    #: deaths) while producing these totals.
    retries: int = 0
    #: payload indices quarantined as poison.  Always empty on a
    #: finished sweep (a poison payload makes the executor raise);
    #: kept so the sweep envelope's keys stay unchanged.
    quarantined: List[int] = field(default_factory=list)
    #: run-id this sweep was resumed from, if any.  In-memory only:
    #: excluded from serialization and equality so a resumed sweep stays
    #: bit-identical to an uninterrupted one.
    resumed_from: Optional[str] = field(default=None, compare=False)

    def sync_series(self, strategy: str) -> List[int]:
        """Per-block-count synchronization time (total − compute-only)."""
        return [t - n for t, n in zip(self.totals[strategy], self.nulls)]

    def best(self, strategy: str) -> int:
        """The strategy's best (smallest) total over the sweep."""
        return min(self.totals[strategy])

    def to_csv(self, sync: bool = False) -> str:
        """Render the sweep as CSV (totals, or sync times with ``sync``).

        Columns: ``blocks`` then one column per strategy, values in ns —
        ready for pandas/gnuplot replotting of Figs. 11/13/14.
        """
        strategies = list(self.totals)
        lines = ["blocks," + ",".join(strategies)]
        for i, n in enumerate(self.blocks):
            values = [
                str(self.sync_series(s)[i] if sync else self.totals[s][i])
                for s in strategies
            ]
            lines.append(f"{n}," + ",".join(values))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Serialize via the shared versioned envelope (docs/parallel.md).

        Deterministic output: equal sweeps render byte-identical text,
        which is how the benches prove parallel == serial.
        """
        return dump_result(
            "sweep",
            {
                "algorithm": self.algorithm,
                "blocks": list(self.blocks),
                "nulls": list(self.nulls),
                "totals": {k: list(v) for k, v in self.totals.items()},
                "retries": self.retries,
                "quarantined": list(self.quarantined),
            },
        )

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "SweepResult":
        """Rebuild a sweep from :meth:`to_json` output.

        Accepts schema versions 1 (the pre-protocol store format), 2
        (pre-provenance envelope; ``retries``/``quarantined`` default to
        a clean sweep) and 3.  Every failure is a typed
        :class:`~repro.errors.ExperimentError` naming ``source``.
        """
        payload = parse_result(
            text, kind="sweep", source=source, accept=(1, 2, 3)
        )
        with shape_errors(source):
            blocks = list(require(payload, "blocks", source))
            nulls = list(require(payload, "nulls", source))
            totals = {
                k: list(v) for k, v in require(payload, "totals", source).items()
            }
            for name, series in totals.items():
                if len(series) != len(blocks):
                    raise ExperimentError(
                        f"{source}: series {name!r} length {len(series)} != "
                        f"{len(blocks)} block counts"
                    )
            if len(nulls) != len(blocks):
                raise ExperimentError(f"{source}: nulls length mismatch")
            return cls(
                algorithm=require(payload, "algorithm", source),
                blocks=blocks,
                totals=totals,
                nulls=nulls,
                retries=int(payload.get("retries", 0)),
                quarantined=list(payload.get("quarantined", [])),
            )


# ---------------------------------------------------------------------------
# Table 1 — % of time spent on inter-block communication (CPU implicit)
# ---------------------------------------------------------------------------

def table1(
    config: Optional[DeviceConfig] = None,
    num_blocks: int = 30,
    algorithms: Sequence[str] = ("fft", "swat", "bitonic"),
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> Dict[str, Breakdown]:
    """Reproduce Table 1: sync share under CPU implicit synchronization.

    Paper: FFT 19.6 %, SWat 49.7 %, bitonic sort 59.6 %.
    """
    cfg = config or get_preset("gtx280")
    device = device_config_to_dict(cfg)
    payloads: List[Dict[str, Any]] = []
    for name in algorithms:
        spec = _algorithm_spec(name)
        payloads.append(_cell(spec, "null", num_blocks, device))
        payloads.append(_cell(spec, "cpu-implicit", num_blocks, device))
    totals, _ = _totals(executor, payloads, resume)
    out: Dict[str, Breakdown] = {}
    for i, name in enumerate(algorithms):
        null, total = totals[2 * i], totals[2 * i + 1]
        out[name] = Breakdown(
            strategy="cpu-implicit",
            total_ns=total,
            compute_ns=null,
            sync_ns=total - null,
        )
    return out


# ---------------------------------------------------------------------------
# Fig. 11 — micro-benchmark execution time vs number of blocks
# ---------------------------------------------------------------------------

def fig11(
    config: Optional[DeviceConfig] = None,
    rounds: int = 200,
    blocks: Optional[Sequence[int]] = None,
    strategies: Sequence[str] = ("cpu-explicit",) + ALL_STRATEGIES,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> SweepResult:
    """Reproduce Fig. 11: micro-benchmark total time per strategy per N.

    The paper uses 10 000 rounds; we default to 200 (every reported
    quantity is per-round or a ratio, so only absolute magnitudes shift —
    DESIGN.md §2).  The runner fast-forwards the micro-benchmark's
    steady-state rounds, so ``rounds=10_000`` costs about as much as the
    default.
    """
    cfg = config or get_preset("gtx280")
    xs = _block_counts(blocks, range(1, cfg.num_sms + 1))
    device = device_config_to_dict(cfg)
    spec = {"name": "micro", "rounds": rounds, "num_blocks_hint": max(xs)}
    payloads = [_cell(spec, "null", n, device) for n in xs]
    for strat in strategies:
        payloads.extend(_cell(spec, strat, n, device) for n in xs)
    totals, stats = _totals(executor, payloads, resume)
    sweep = SweepResult(algorithm="micro", blocks=xs)
    sweep.nulls = totals[: len(xs)]
    for j, strat in enumerate(strategies):
        start = len(xs) * (j + 1)
        sweep.totals[strat] = totals[start : start + len(xs)]
    return _stamp(sweep, stats)


# ---------------------------------------------------------------------------
# Figs. 13 & 14 — per-algorithm kernel time and sync time vs blocks
# ---------------------------------------------------------------------------

def algorithm_sweep(
    algorithm_name: str,
    config: Optional[DeviceConfig] = None,
    blocks: Optional[Sequence[int]] = None,
    step: int = 3,
    strategies: Sequence[str] = ALL_STRATEGIES,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> SweepResult:
    """Sweep one algorithm over block counts for Figs. 13/14.

    Paper sweeps N = 9..30; the default here is the same range with
    ``step=3`` for tractability.
    """
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    cfg = config or get_preset("gtx280")
    xs = _block_counts(blocks, range(9, cfg.num_sms + 1, step))
    spec = _algorithm_spec(algorithm_name)
    device = device_config_to_dict(cfg)
    payloads = [_cell(spec, "null", n, device) for n in xs]
    for strat in strategies:
        payloads.extend(_cell(spec, strat, n, device) for n in xs)
    totals, stats = _totals(executor, payloads, resume)
    sweep = SweepResult(algorithm=algorithm_name, blocks=xs)
    sweep.nulls = totals[: len(xs)]
    for j, strat in enumerate(strategies):
        start = len(xs) * (j + 1)
        sweep.totals[strat] = totals[start : start + len(xs)]
    return _stamp(sweep, stats)


def fig13(
    algorithm_name: str,
    config: Optional[DeviceConfig] = None,
    blocks: Optional[Sequence[int]] = None,
    step: int = 3,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> SweepResult:
    """Fig. 13(a/b/c): kernel execution time vs number of blocks."""
    return algorithm_sweep(
        algorithm_name, config, blocks, step, executor=executor, resume=resume
    )


def fig14(
    algorithm_name: str,
    config: Optional[DeviceConfig] = None,
    blocks: Optional[Sequence[int]] = None,
    step: int = 3,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> SweepResult:
    """Fig. 14(a/b/c): synchronization time vs number of blocks.

    Same sweep as Fig. 13; read the sync series via
    :meth:`SweepResult.sync_series`.
    """
    return algorithm_sweep(
        algorithm_name, config, blocks, step, executor=executor, resume=resume
    )


# ---------------------------------------------------------------------------
# Fig. 15 — computation/synchronization percentage breakdown
# ---------------------------------------------------------------------------

def fig15(
    config: Optional[DeviceConfig] = None,
    num_blocks: int = 30,
    algorithms: Sequence[str] = ("fft", "swat", "bitonic"),
    strategies: Sequence[str] = ALL_STRATEGIES,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> Dict[str, Dict[str, Breakdown]]:
    """Fig. 15: per-algorithm, per-strategy compute/sync percentages at
    each algorithm's best configuration (30 blocks)."""
    cfg = config or get_preset("gtx280")
    device = device_config_to_dict(cfg)
    payloads: List[Dict[str, Any]] = []
    for name in algorithms:
        spec = _algorithm_spec(name)
        payloads.append(_cell(spec, "null", num_blocks, device))
        payloads.extend(
            _cell(spec, strat, num_blocks, device) for strat in strategies
        )
    totals, _ = _totals(executor, payloads, resume)
    stride = 1 + len(strategies)
    out: Dict[str, Dict[str, Breakdown]] = {}
    for i, name in enumerate(algorithms):
        null = totals[i * stride]
        per_strategy: Dict[str, Breakdown] = {}
        for j, strat in enumerate(strategies):
            total = totals[i * stride + 1 + j]
            per_strategy[strat] = Breakdown(
                strategy=strat,
                total_ns=total,
                compute_ns=null,
                sync_ns=total - null,
            )
        out[name] = per_strategy
    return out


# ---------------------------------------------------------------------------
# Headline numbers (abstract / §7.2)
# ---------------------------------------------------------------------------

def headline(
    config: Optional[DeviceConfig] = None,
    num_blocks: int = 30,
    micro_rounds: int = 200,
    executor: Optional[Executor] = None,
    resume: Optional[str] = None,
) -> Dict[str, float]:
    """The abstract's numbers.

    * micro-benchmark: lock-free sync is 7.8× faster than CPU explicit
      and 3.7× faster than CPU implicit (per-round sync time);
    * kernel time improves by 8 % (FFT), 24 % (SWat), 39 % (bitonic)
      with lock-free vs CPU implicit.
    """
    cfg = config or get_preset("gtx280")
    device = device_config_to_dict(cfg)
    micro_spec = {
        "name": "micro",
        "rounds": micro_rounds,
        "num_blocks_hint": num_blocks,
    }
    micro_strats = ("cpu-explicit", "cpu-implicit", "gpu-lockfree")
    kernels = ("fft", "swat", "bitonic")
    payloads = [_cell(micro_spec, "null", num_blocks, device)]
    payloads.extend(
        _cell(micro_spec, strat, num_blocks, device) for strat in micro_strats
    )
    for name in kernels:
        spec = _algorithm_spec(name)
        payloads.append(_cell(spec, "cpu-implicit", num_blocks, device))
        payloads.append(_cell(spec, "gpu-lockfree", num_blocks, device))
    totals, _ = _totals(executor, payloads, resume)
    null = totals[0]
    sync = {
        strat: totals[1 + i] - null for i, strat in enumerate(micro_strats)
    }
    out: Dict[str, float] = {
        "micro_lockfree_vs_explicit": sync["cpu-explicit"] / sync["gpu-lockfree"],
        "micro_lockfree_vs_implicit": sync["cpu-implicit"] / sync["gpu-lockfree"],
    }
    for i, name in enumerate(kernels):
        base = totals[1 + len(micro_strats) + 2 * i]
        fast = totals[1 + len(micro_strats) + 2 * i + 1]
        out[f"{name}_improvement_pct"] = 100.0 * (base - fast) / base
    return out


# ---------------------------------------------------------------------------
# Model validation (§5.4: "matches the time consumption model well")
# ---------------------------------------------------------------------------

def model_validation(
    config: Optional[DeviceConfig] = None,
    blocks: Optional[Sequence[int]] = None,
    rounds: int = 50,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Measured vs predicted per-round barrier cost (Eqs. 6, 7, 9).

    Returns ``{strategy: {N: {"measured": ns, "predicted": ns}}}``.
    Measured cost is :func:`~repro.harness.phases.probe_barrier_cost`
    (``(total − compute-only) / rounds`` on the micro-benchmark);
    predictions are :func:`~repro.model.barrier_costs.barrier_cost` on
    ``config``, topology included, for every strategy in
    :data:`~repro.model.barrier_costs.MODELED_BARRIERS`.  The model
    assumes all blocks hit the barrier simultaneously, so measurements
    may fall slightly below predictions for unbalanced trees.
    """
    cfg = config or get_preset("gtx280")
    xs = _block_counts(blocks, [1, 2, 4, 8, 16, 24, 30])
    return {
        strat: {
            n: {
                "measured": probe_barrier_cost(strat, n, cfg, rounds),
                "predicted": float(barrier_cost(strat, n, cfg)),
            }
            for n in xs
        }
        for strat in MODELED_BARRIERS
    }
