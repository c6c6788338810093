"""Tests for the cost model's strategy pick (``repro.model.tune``)."""

import pytest

from repro.errors import ConfigError
from repro.model.tune import predict_all, tune_workload


def _pick(rounds, compute_ns, num_blocks):
    """The model's report for a workload (configured strategy immaterial)."""
    return tune_workload(rounds, compute_ns, num_blocks, "cpu-implicit")


def test_predict_all_covers_every_strategy():
    predictions = predict_all(rounds=100, compute_ns=500, num_blocks=30)
    assert set(predictions) == {
        "cpu-explicit",
        "cpu-implicit",
        "gpu-simple",
        "gpu-tree-2",
        "gpu-tree-3",
        "gpu-lockfree",
    }
    assert all(v > 0 for v in predictions.values())


def test_lockfree_recommended_for_sync_bound_workloads():
    report = _pick(rounds=1000, compute_ns=500, num_blocks=30)
    assert report.recommended == "gpu-lockfree"
    assert report.ranking()[0][0] == "gpu-lockfree"
    assert report.ranking()[-1][0] == "cpu-explicit"


def test_simple_recommended_for_tiny_grids():
    # At 1–3 blocks the single atomic chain beats lock-free's fixed cost.
    assert _pick(rounds=1000, compute_ns=500, num_blocks=2).recommended == (
        "gpu-simple"
    )


def test_rho_reported_against_implicit_baseline():
    report = _pick(rounds=100, compute_ns=6000, num_blocks=30)
    # compute 6000/round vs implicit barrier 6000/round → ρ ≈ 0.5.
    assert report.rho == pytest.approx(0.5, abs=0.05)


def test_ranking_sorted_ascending():
    report = _pick(rounds=50, compute_ns=1000, num_blocks=16)
    times = [t for _name, t in report.ranking()]
    assert times == sorted(times)


def test_validation():
    with pytest.raises(ConfigError):
        predict_all(rounds=10, compute_ns=100, num_blocks=0)
