"""What one workload run reports: operations, output checks, metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: end-to-end metric -> unit; every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_fast_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "jobs_per_s": "1/s",
}


@dataclass
class Outcome:
    """Operations attempted and failed, problems found, metrics measured."""

    attempted: int = 0
    failed: int = 0
    #: one line per failed output check or counter drift.
    problems: List[str] = field(default_factory=list)
    #: metric name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed before the result (fixed values,
    #: sample counts).
    notes: List[str] = field(default_factory=list)

    def fail(self, operations: int, problem: str) -> None:
        """Count ``operations`` as failed because of ``problem``."""
        self.failed += operations
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def set_end_to_end(self, **values: float) -> None:
        for name, value in values.items():
            self.metrics[name] = (value, END_TO_END[name])


def median_per_position(rows: Sequence[Sequence[float]]) -> List[float]:
    """Each position's median over equally shaped rows of timings."""
    return [statistics.median(column) for column in zip(*rows)]


def percentiles_ms(seconds: Sequence[float]) -> Tuple[float, float]:
    """(p50, p90) of latency samples given in seconds, in milliseconds."""
    deciles = statistics.quantiles(seconds, n=10)
    return statistics.median(seconds) * 1e3, deciles[8] * 1e3
