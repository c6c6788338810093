"""Tests for the §7.3 phase-accounting methodology."""

import pytest

from repro.algorithms import MeanMicrobench
from repro.errors import ConfigError, ExperimentError
from repro.harness import run
from repro.harness.phases import (
    breakdown,
    compute_only,
    probe_barrier_cost,
    sync_time_ns,
)
from repro.model.barrier_costs import lockfree_cost, simple_cost


@pytest.fixture
def micro():
    return MeanMicrobench(rounds=20, num_blocks_hint=8, threads_per_block=32)


def test_compute_only_uses_null_strategy(micro):
    result = compute_only(micro, 8)
    assert result.strategy == "null"
    assert result.verified is None
    assert result.kernel_launches == 1


def test_sync_time_is_barrier_cost(micro):
    null = compute_only(micro, 8)
    result = run(micro, "gpu-lockfree", 8)
    sync = sync_time_ns(result, null)
    assert sync == 20 * lockfree_cost(8)


def test_sync_time_rejects_mismatched_blocks(micro):
    null = compute_only(micro, 8)
    result = run(micro, "gpu-lockfree", 4)
    with pytest.raises(ExperimentError):
        sync_time_ns(result, null)


def test_sync_time_rejects_mismatched_algorithms(micro):
    from repro.algorithms import FFT

    null = compute_only(FFT(n=64), 4)
    result = run(micro, "gpu-lockfree", 4)
    with pytest.raises(ExperimentError):
        sync_time_ns(result, null)


def test_breakdown_percentages_sum_to_100(micro):
    null = compute_only(micro, 8)
    b = breakdown(run(micro, "cpu-implicit", 8), null)
    assert b.compute_pct + b.sync_pct == pytest.approx(100.0)
    assert b.compute_ns + b.sync_ns == b.total_ns
    assert 0 < b.sync_pct < 100


def test_breakdown_orders_strategies(micro):
    """Implicit sync share must exceed lock-free's (Fig. 15's point)."""
    null = compute_only(micro, 8)
    implicit = breakdown(run(micro, "cpu-implicit", 8), null)
    lockfree = breakdown(run(micro, "gpu-lockfree", 8), null)
    assert implicit.sync_pct > lockfree.sync_pct


def test_probe_matches_known_costs():
    assert probe_barrier_cost("gpu-lockfree", 16) == lockfree_cost(16)
    assert probe_barrier_cost("gpu-simple", 16) == simple_cost(16)


def test_probe_cpu_implicit():
    cost = probe_barrier_cost("cpu-implicit", 8, probe_rounds=10)
    # total-minus-null attributes (R-1)/R of the boundary per round.
    assert 5000 <= cost <= 6000


def test_probe_validation():
    with pytest.raises(ConfigError):
        probe_barrier_cost("gpu-lockfree", 8, probe_rounds=0)
