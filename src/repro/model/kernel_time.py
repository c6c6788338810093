"""Kernel execution-time models — Eqs. 1, 3, 4 and 5 of the paper.

Each function predicts total kernel execution time (ns) for ``M`` rounds
of computation separated by barriers, given per-round computation times
and a synchronization approach.  ``benchmarks/bench_models.py`` compares
these predictions to simulator measurements.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from numbers import Real
from typing import Optional, Sequence, Union

from repro.algorithms.base import require_int
from repro.errors import ConfigError
from repro.model.calibration import CalibratedTimings, default_timings

__all__ = [
    "total_time",
    "cpu_explicit_time",
    "cpu_implicit_time",
    "gpu_sync_time",
]

Number = Union[int, float]


def _per_round(compute_ns: Union[Number, Sequence[Number]], rounds: int) -> list:
    """Normalize a scalar or per-round sequence of compute times.

    Raises :class:`~repro.errors.ConfigError` unless ``rounds`` is an
    int >= 1 and every compute time is a finite number >= 0.
    """
    require_int("rounds", rounds, 1)
    if isinstance(compute_ns, Real):
        seq = [compute_ns] * rounds
    elif isinstance(compute_ns, Iterable) and not isinstance(compute_ns, str):
        seq = list(compute_ns)
    else:
        raise ConfigError(
            "compute_ns must be a number or a sequence of numbers, "
            f"got {compute_ns!r}"
        )
    if len(seq) != rounds:
        raise ConfigError(
            f"got {len(seq)} per-round compute times for {rounds} rounds"
        )
    for value in seq:
        if (
            isinstance(value, bool)
            or not isinstance(value, Real)
            or not math.isfinite(value)
            or value < 0
        ):
            raise ConfigError(f"compute_ns must be finite and >= 0, got {value!r}")
    return seq


def total_time(
    launch_ns: Sequence[Number],
    compute_ns: Sequence[Number],
    sync_ns: Sequence[Number],
) -> float:
    """Eq. 1: ``T = Σ_i (t_O(i) + t_C(i) + t_S(i))`` — the generic sum.

    All three sequences must have equal length ``M``.
    """
    if not (len(launch_ns) == len(compute_ns) == len(sync_ns)):
        raise ConfigError("launch/compute/sync sequences must have equal length")
    return float(sum(launch_ns) + sum(compute_ns) + sum(sync_ns))


def cpu_explicit_time(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    timings: Optional[CalibratedTimings] = None,
) -> float:
    """Eq. 3: every round pays launch, compute and boundary serially."""
    t = timings or default_timings()
    per = _per_round(compute_ns, rounds)
    return float(
        sum(per)
        + rounds * (t.host_launch_ns + t.cpu_implicit_barrier_ns)
    )


def cpu_implicit_time(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    timings: Optional[CalibratedTimings] = None,
) -> float:
    """Eq. 4: only the first launch is exposed; later launches pipeline.

    ``T = t_O(1) + Σ_i (t_C(i) + t_CIS(i))``.
    """
    t = timings or default_timings()
    per = _per_round(compute_ns, rounds)
    return float(
        t.host_launch_ns
        + sum(per)
        + rounds * t.cpu_implicit_barrier_ns
    )


def gpu_sync_time(
    rounds: int,
    compute_ns: Union[Number, Sequence[Number]],
    barrier_ns: Number,
    timings: Optional[CalibratedTimings] = None,
) -> float:
    """Eq. 5: one launch, then ``M`` rounds of compute + device barrier.

    ``T = t_O + Σ_i (t_C(i) + t_GS(i))``.  The single kernel still pays
    its setup/teardown once.
    """
    t = timings or default_timings()
    per = _per_round(compute_ns, rounds)
    return float(
        t.host_launch_ns
        + t.cpu_implicit_barrier_ns  # one kernel's setup + teardown
        + sum(per)
        + rounds * barrier_ns
    )
