"""Tests for the §7.3 phase-accounting methodology."""

import dataclasses
import logging

import numpy as np
import pytest

from repro.algorithms import (
    FFT,
    BitonicSort,
    JacobiPoisson,
    MeanMicrobench,
    PrefixSum,
    Reduction,
    SmithWaterman,
)
from repro.errors import ConfigError, ExperimentError
from repro.harness import phases, run
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


# -- compute_only is a cost-only view: same clock, no arithmetic ------------

#: every shipped RoundAlgorithm at a size that simulates in milliseconds.
ALGORITHMS = {
    "fft": lambda: FFT(n=256, seed=1),
    "swat": lambda: SmithWaterman(24, 20, seed=1),
    "bitonic": lambda: BitonicSort(n=256, seed=1),
    "micro": lambda: MeanMicrobench(rounds=12, num_blocks_hint=30),
    "reduce": lambda: Reduction(n=1000, num_blocks_hint=30, seed=1),
    "scan": lambda: PrefixSum(n=256, seed=1),
    "stencil": lambda: JacobiPoisson(n=64, sweeps=12, seed=1),
}


@pytest.fixture
def kept_devices(monkeypatch):
    """compute_only's runs, each keeping its device."""
    results = []

    def keeping(*args, **kwargs):
        results.append(run(*args, keep_device=True, **kwargs))
        return results[-1]

    monkeypatch.setattr(phases, "run", keeping)
    return results


def _arrays(algorithm) -> dict:
    """Copies of every ndarray the instance holds, directly or in a
    tuple or list."""
    found = {}
    for name, value in vars(algorithm).items():
        items = value if isinstance(value, (tuple, list)) else [value]
        for i, item in enumerate(items):
            if isinstance(item, np.ndarray):
                found[f"{name}[{i}]"] = item.copy()
    return found


@pytest.mark.parametrize("num_blocks", [1, 7, 30])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_compute_only_equals_a_null_run(name, num_blocks, kept_devices):
    algorithm = ALGORITHMS[name]()
    null = run(
        algorithm, "null", num_blocks,
        verify=False, monitor_races=False, keep_device=True,
    )
    cost_only = compute_only(algorithm, num_blocks)
    (kept,) = kept_devices
    fields = [f.name for f in dataclasses.fields(null) if f.name != "device"]
    assert {f: getattr(cost_only, f) for f in fields} == {
        f: getattr(null, f) for f in fields
    }
    assert (
        kept.device.engine.events_dispatched
        == null.device.engine.events_dispatched
    )
    assert kept.device.trace.digest() == null.device.trace.digest()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_compute_only_leaves_working_arrays_alone(name):
    algorithm = ALGORITHMS[name]()
    before = _arrays(algorithm)
    assert before
    compute_only(algorithm, 7)
    after = _arrays(algorithm)
    assert after.keys() == before.keys()
    for key, array in before.items():
        np.testing.assert_array_equal(after[key], array, err_msg=key)


def test_compute_only_micro_still_fast_forwards(caplog):
    caplog.set_level(logging.DEBUG, logger="repro.harness.runner")
    compute_only(MeanMicrobench(rounds=200, num_blocks_hint=30), 30)
    (record,) = [
        r.getMessage() for r in caplog.records
        if r.name == "repro.harness.runner"
    ]
    assert record.startswith("fast-forward engaged for micro on null")
