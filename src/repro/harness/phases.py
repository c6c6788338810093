"""Phase accounting — the paper's §7.3 measurement methodology.

"the synchronization time is the difference between the total kernel
execution time and the computation time, which is obtained by running an
implementation ... with the synchronization function __gpu_sync()
removed.  For the implementation with the CPU [synchronization] method,
we assume its computation time is the same as the others."

:func:`compute_only` is the removed-barrier run (the ``null`` strategy on
a cost-only view of the algorithm);
:func:`sync_time_ns` and :func:`breakdown` derive synchronization time
and the Fig. 15 percentage split from it; :func:`probe_barrier_cost`
applies the same subtraction to a micro-benchmark to measure one
barrier's per-round cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import RoundAlgorithm
from repro.algorithms.microbench import MeanMicrobench
from repro.errors import ConfigError, ExperimentError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.harness.runner import RunResult, run

__all__ = [
    "Breakdown",
    "breakdown",
    "compute_only",
    "probe_barrier_cost",
    "sync_time_ns",
]


class _CostOnly(RoundAlgorithm):
    """``algorithm`` without its arithmetic: the same rounds at the same
    costs, no round work, and nothing to reset or verify.

    Sound because :meth:`~RoundAlgorithm.round_cost` depends on the
    shape only, never on the working arrays.  An algorithm that opts in
    to fast-forward stays eligible; skipping rounds of no work is a
    no-op.
    """

    def __init__(self, algorithm: RoundAlgorithm):
        self._algorithm = algorithm
        self.name = algorithm.name
        self.default_threads = algorithm.default_threads
        if algorithm.skip_rounds is not None:
            self.skip_rounds = _skip_nothing

    def num_rounds(self) -> int:
        return self._algorithm.num_rounds()

    def reset(self) -> None:
        pass

    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        return self._algorithm.round_cost(round_idx, block_id, num_blocks)

    def round_work(self, round_idx: int, block_id: int, num_blocks: int) -> None:
        return None

    def verify(self) -> None:
        pass


def _skip_nothing(count: int) -> None:
    """Fast-forward ``count`` rounds that have no work."""


def compute_only(
    algorithm: RoundAlgorithm,
    num_blocks: int,
    threads_per_block: Optional[int] = None,
    config: Optional[DeviceConfig] = None,
) -> RunResult:
    """Run the algorithm with the barrier removed (timing only).

    The ``null`` strategy runs a cost-only view of ``algorithm``: every
    block is charged its :meth:`~RoundAlgorithm.round_cost` each round,
    but no round work is applied.  Without barriers the results would be
    unspecified anyway, so only the clock matters, and the result, event
    count and trace equal those of a ``null`` run of ``algorithm``
    itself.  ``algorithm``'s working arrays are left as they were.
    """
    return run(
        _CostOnly(algorithm),
        "null",
        num_blocks,
        threads_per_block=threads_per_block,
        config=config,
        verify=False,
        monitor_races=False,
    )


def sync_time_ns(result: RunResult, compute_only_result: RunResult) -> int:
    """Total synchronization time: measured total − compute-only total."""
    if result.algorithm != compute_only_result.algorithm:
        raise ExperimentError(
            f"mismatched runs: {result.algorithm} vs "
            f"{compute_only_result.algorithm}"
        )
    if result.num_blocks != compute_only_result.num_blocks:
        raise ExperimentError(
            "sync_time_ns needs both runs at the same block count "
            f"({result.num_blocks} vs {compute_only_result.num_blocks})"
        )
    return result.total_ns - compute_only_result.total_ns


def probe_barrier_cost(
    strategy: str,
    num_blocks: int,
    config: Optional[DeviceConfig] = None,
    probe_rounds: int = 8,
) -> float:
    """Measure one strategy's per-round barrier cost at ``num_blocks``.

    Uses the §7.3 methodology on a minimal weak-scaled kernel: probe
    total minus compute-only total, divided by rounds.
    """
    if probe_rounds < 1:
        raise ConfigError(f"probe_rounds must be >= 1, got {probe_rounds}")
    cfg = config or get_preset("gtx280")
    micro = MeanMicrobench(
        rounds=probe_rounds, num_blocks_hint=num_blocks, threads_per_block=64
    )
    null = compute_only(micro, num_blocks, config=cfg)
    result = run(micro, strategy, num_blocks, config=cfg)
    return sync_time_ns(result, null) / probe_rounds


@dataclass(frozen=True)
class Breakdown:
    """The Fig. 15 split of one run into computation vs synchronization."""

    strategy: str
    total_ns: int
    compute_ns: int
    sync_ns: int

    @property
    def compute_pct(self) -> float:
        """Computation share of the total, in percent."""
        return 100.0 * self.compute_ns / self.total_ns if self.total_ns else 0.0

    @property
    def sync_pct(self) -> float:
        """Synchronization share of the total, in percent."""
        return 100.0 * self.sync_ns / self.total_ns if self.total_ns else 0.0


def breakdown(result: RunResult, compute_only_result: RunResult) -> Breakdown:
    """Split one run's total into computation and synchronization."""
    sync = sync_time_ns(result, compute_only_result)
    return Breakdown(
        strategy=result.strategy,
        total_ns=result.total_ns,
        compute_ns=result.total_ns - sync,
        sync_ns=sync,
    )
