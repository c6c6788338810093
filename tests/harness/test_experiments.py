"""Smoke and shape tests for the experiment drivers (small configs)."""

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.harness import experiments


def test_make_algorithm_known_names():
    assert experiments.make_algorithm("fft").name == "fft"
    assert experiments.make_algorithm("swat").name == "swat"
    assert experiments.make_algorithm("bitonic").name == "bitonic"


def test_make_algorithm_unknown_rejected():
    with pytest.raises(ExperimentError):
        experiments.make_algorithm("quicksort")


def test_fig11_small_sweep_shape():
    sweep = experiments.fig11(rounds=10, blocks=[2, 8, 16])
    assert sweep.blocks == [2, 8, 16]
    assert len(sweep.nulls) == 3
    for strat, series in sweep.totals.items():
        assert len(series) == 3, strat
    # CPU explicit must dominate everything at every point.
    for i in range(3):
        assert sweep.totals["cpu-explicit"][i] == max(
            s[i] for s in sweep.totals.values()
        )
    # GPU simple grows with blocks; lock-free stays flat.
    simple = sweep.sync_series("gpu-simple")
    assert simple[0] < simple[1] < simple[2]
    lockfree = sweep.sync_series("gpu-lockfree")
    assert lockfree[0] == lockfree[1] == lockfree[2]


def test_fig11_sync_series_matches_totals_minus_null():
    sweep = experiments.fig11(rounds=5, blocks=[4], strategies=["gpu-simple"])
    assert sweep.sync_series("gpu-simple") == [
        sweep.totals["gpu-simple"][0] - sweep.nulls[0]
    ]


def test_sweep_result_best():
    sweep = experiments.fig11(rounds=5, blocks=[2, 8], strategies=["cpu-implicit"])
    assert sweep.best("cpu-implicit") == min(sweep.totals["cpu-implicit"])


def test_model_validation_small():
    out = experiments.model_validation(blocks=[2, 8], rounds=5)
    assert set(out) == {"gpu-simple", "gpu-tree-2", "gpu-tree-3", "gpu-lockfree"}
    for strat, per_n in out.items():
        for n, pair in per_n.items():
            assert pair["measured"] <= pair["predicted"] * 1.01, (strat, n)
            assert pair["measured"] >= pair["predicted"] * 0.80, (strat, n)


def test_empty_block_sweep_rejected():
    with pytest.raises(ConfigError):
        experiments.algorithm_sweep("fft", blocks=[])


@pytest.mark.parametrize(
    "driver",
    [
        lambda: experiments.fig11(rounds=2, blocks=[]),
        lambda: experiments.fig13("fft", blocks=[]),
        lambda: experiments.fig14("bitonic", blocks=[]),
        lambda: experiments.model_validation(blocks=[], rounds=2),
    ],
    ids=["fig11", "fig13", "fig14", "model_validation"],
)
def test_every_block_sweep_driver_rejects_empty_blocks(driver):
    with pytest.raises(ConfigError, match="empty block sweep"):
        driver()
