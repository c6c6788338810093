"""Tests for the mean-of-two-floats micro-benchmark."""

import pytest

from repro.algorithms import MeanMicrobench, VerificationError
from repro.errors import ConfigError
from repro.model.calibration import MICRO_ROUND_COMPUTE_NS
from repro.parallel.workers import build_algorithm

from tests.algorithms.conftest import run_rounds_serially


def test_computes_means():
    micro = MeanMicrobench(rounds=3, num_blocks_hint=4, threads_per_block=8)
    run_rounds_serially(micro, 4)
    micro.verify()


def test_weak_scaling_cost_is_flat():
    micro = MeanMicrobench(rounds=2)
    costs = {
        micro.round_cost(0, b, n) for n in (1, 8, 30) for b in range(n)
    }
    assert costs == {MICRO_ROUND_COMPUTE_NS}


def test_stamps_detect_missing_round():
    micro = MeanMicrobench(rounds=4, num_blocks_hint=2, threads_per_block=4)
    micro.reset()
    for r in range(4):
        for b in range(2):
            if (r, b) == (2, 1):
                continue
            work = micro.round_work(r, b, 2)
            if work is not None:
                work()
    with pytest.raises(VerificationError, match="stamps"):
        micro.verify()


def test_fewer_blocks_than_hint_still_covers_all_elements():
    micro = MeanMicrobench(rounds=2, num_blocks_hint=8, threads_per_block=4)
    run_rounds_serially(micro, 3)  # 3 blocks cover 32 elements
    micro.verify()


def test_reset_clears_state():
    micro = MeanMicrobench(rounds=2, num_blocks_hint=2, threads_per_block=4)
    run_rounds_serially(micro, 2)
    micro.reset()
    assert (micro.out == 0).all()
    assert (micro._stamps == 0).all()


def test_rejects_zero_rounds():
    with pytest.raises(ConfigError):
        MeanMicrobench(rounds=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rounds": 2.5},
        {"rounds": True},
        {"rounds": "3"},
        {"num_blocks_hint": 0},
        {"threads_per_block": 0},
    ],
    ids=["float-rounds", "bool-rounds", "str-rounds", "zero-hint", "zero-threads"],
)
def test_malformed_inputs_are_config_errors(kwargs):
    with pytest.raises(ConfigError):
        MeanMicrobench(**kwargs)
    # The worker and service spec path builds the same object.
    with pytest.raises(ConfigError):
        build_algorithm({"name": "micro", **kwargs})
