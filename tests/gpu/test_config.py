"""Tests for the device configuration and occupancy math."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.model.calibration import CalibratedTimings


def test_gtx280_preset_matches_paper_section2():
    cfg = get_preset("gtx280")
    assert cfg.num_sms == 30
    assert cfg.sps_per_sm == 8
    assert cfg.total_sps == 240
    assert cfg.clock_mhz == 1296
    assert cfg.shared_mem_per_sm == 16 * 1024
    assert cfg.registers_per_sm == 16 * 1024
    assert cfg.global_mem_bytes == 1024**3
    assert cfg.global_bandwidth_gbps == 141.7
    assert cfg.max_threads_per_block == 512


def test_full_shared_memory_forces_one_block_per_sm():
    """The paper's co-residency trick (§5)."""
    cfg = get_preset("gtx280")
    assert cfg.blocks_per_sm(256, shared_mem_per_block=cfg.shared_mem_per_sm) == 1


def test_occupancy_limited_by_threads():
    cfg = get_preset("gtx280")
    # 1024 threads/SM: two 512-thread blocks would exceed it.
    assert cfg.blocks_per_sm(512, registers_per_thread=1) == 2
    assert cfg.blocks_per_sm(256, registers_per_thread=1) == 4


def test_occupancy_limited_by_block_cap():
    cfg = get_preset("gtx280")
    assert cfg.blocks_per_sm(1, registers_per_thread=0) == cfg.max_blocks_per_sm


def test_occupancy_limited_by_registers():
    cfg = get_preset("gtx280")
    # 16 regs × 512 threads = 8192 ≤ 16384 → 2 fit; threads cap to 2 anyway.
    assert cfg.blocks_per_sm(512, registers_per_thread=16) == 2
    assert cfg.blocks_per_sm(512, registers_per_thread=32) == 1
    assert cfg.blocks_per_sm(512, registers_per_thread=64) == 0


def test_oversized_block_yields_zero_occupancy():
    cfg = get_preset("gtx280")
    assert cfg.blocks_per_sm(513) == 0
    assert cfg.blocks_per_sm(64, shared_mem_per_block=cfg.shared_mem_per_sm + 1) == 0


def test_invalid_threads_rejected():
    with pytest.raises(ConfigError):
        get_preset("gtx280").blocks_per_sm(0)


def test_config_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(num_sms=0)
    with pytest.raises(ConfigError):
        DeviceConfig(global_bandwidth_gbps=0)


@pytest.mark.parametrize("field, value", [
    ("num_sms", "30"),
    ("num_sms", 30.0),
    ("num_sms", True),
    ("warp_size", None),
    ("max_blocks_per_sm", [8]),
    ("pcie_gbps", "8"),
    ("global_bandwidth_gbps", False),
    ("pcie_gbps", float("nan")),
    ("global_bandwidth_gbps", float("inf")),
    ("timings", 5),
    ("topology", "cluster"),
    ("name", None),
])
def test_non_numeric_field_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match=field):
        DeviceConfig(**{field: value})


def test_numpy_int_fields_accepted():
    np = pytest.importorskip("numpy")
    assert DeviceConfig(num_sms=np.int64(30)).num_sms == 30


def test_with_timings_swaps_only_timings():
    custom = CalibratedTimings(atomic_ns=999)
    cfg = get_preset("gtx280").with_timings(custom)
    assert cfg.timings.atomic_ns == 999
    assert cfg.num_sms == 30


@given(
    threads=st.integers(1, 512),
    shared=st.integers(0, 16 * 1024),
)
def test_occupancy_never_exceeds_resources(threads, shared):
    cfg = get_preset("gtx280")
    occ = cfg.blocks_per_sm(threads, shared_mem_per_block=shared)
    assert 0 <= occ <= cfg.max_blocks_per_sm
    assert occ * threads <= cfg.max_threads_per_sm
    if shared > 0:
        assert occ * shared <= cfg.shared_mem_per_sm
