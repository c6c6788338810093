"""Tests for the calibrated timing constants."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.model.calibration import (
    ATOMIC_NS,
    CalibratedTimings,
    HOST_LAUNCH_NS,
    KERNEL_SETUP_NS,
    KERNEL_TEARDOWN_NS,
    SPIN_READ_NS,
    SYNCTHREADS_NS,
    default_timings,
)


def test_defaults_match_module_constants():
    t = default_timings()
    assert t.host_launch_ns == HOST_LAUNCH_NS
    assert t.atomic_ns == ATOMIC_NS
    assert t.kernel_setup_ns == KERNEL_SETUP_NS


def test_implicit_barrier_is_setup_plus_teardown():
    t = default_timings()
    assert t.cpu_implicit_barrier_ns == KERNEL_SETUP_NS + KERNEL_TEARDOWN_NS


def test_explicit_barrier_adds_serial_launch():
    t = default_timings()
    assert t.cpu_explicit_barrier_ns == t.cpu_implicit_barrier_ns + HOST_LAUNCH_NS


def test_calibration_anchors_from_the_paper():
    """The derivations in the module docstring must actually hold."""
    t = default_timings()
    # CPU implicit sync ≈ 6 µs/round (Fig. 11: 60 ms / 10 000 rounds).
    assert t.cpu_implicit_barrier_ns == 6_000
    # Lock-free ≈ 1.6 µs so implicit/lock-free ≈ 3.7 and explicit ≈ 7.8.
    lockfree = (
        t.lockfree_overhead_ns
        + 2 * t.global_write_ns
        + 2 * t.spin_read_ns
        + 2 * t.syncthreads_ns
    )
    assert lockfree == 1_600
    assert t.cpu_implicit_barrier_ns / lockfree == pytest.approx(3.7, abs=0.1)
    assert t.cpu_explicit_barrier_ns / lockfree == pytest.approx(7.8, abs=0.1)
    # GPU simple sync crosses CPU implicit between 23 and 24 blocks.
    fixed = SPIN_READ_NS + SYNCTHREADS_NS
    assert 23 * ATOMIC_NS + fixed < 6_000 < 24 * ATOMIC_NS + fixed


def test_timings_are_immutable():
    t = default_timings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.atomic_ns = 1  # type: ignore[misc]


def test_negative_timing_rejected():
    with pytest.raises(ConfigError):
        CalibratedTimings(atomic_ns=-1)


@pytest.mark.parametrize("value", ["x", 1.5, float("nan"), True, None])
def test_non_int_timing_rejected(value):
    with pytest.raises(ConfigError, match="timing atomic_ns"):
        CalibratedTimings(atomic_ns=value)


def test_replace_derives_variants():
    t = dataclasses.replace(default_timings(), atomic_ns=100)
    assert t.atomic_ns == 100
    assert t.spin_read_ns == default_timings().spin_read_ns
