"""Tests for the device-preset registry and the presets it serves."""

import pytest

from repro.algorithms import MeanMicrobench
from repro.errors import ConfigError, OccupancyError
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset, preset_names, register_preset
from repro.harness import run


# -- the registry -----------------------------------------------------------


def test_registry_lists_all_shipped_presets():
    assert preset_names() == [
        "dual_gpu",
        "fermi_class",
        "grid_sync",
        "gtx280",
        "riscv_cluster_1024",
    ]


def test_unknown_preset_is_a_typed_error_naming_the_choices():
    with pytest.raises(ConfigError, match="grid_sync"):
        get_preset("gtx-480")


def test_get_preset_returns_fresh_equal_configs():
    assert get_preset("gtx280") == get_preset("gtx280")
    assert get_preset("gtx280") == DeviceConfig()


def test_timings_override_is_keyword_only():
    slow = get_preset("gtx280").timings
    cfg = get_preset("fermi_class", timings=slow)
    assert cfg.timings == slow
    assert cfg.num_sms == 15  # everything else untouched
    with pytest.raises(TypeError):
        get_preset("fermi_class", slow)  # positional timings refused


def test_register_preset_extends_the_registry():
    register_preset("test-tiny", lambda: DeviceConfig(num_sms=2))
    try:
        assert get_preset("test-tiny").num_sms == 2
        assert "test-tiny" in preset_names()
    finally:
        from repro.gpu import presets

        del presets._REGISTRY["test-tiny"]


# -- fermi_class ------------------------------------------------------------


def test_fermi_preset_shape():
    cfg = get_preset("fermi_class")
    assert cfg.num_sms == 15
    assert cfg.total_sps == 480
    assert cfg.shared_mem_per_sm == 48 * 1024
    assert cfg.max_threads_per_block == 1024
    assert cfg.timings.atomic_ns < get_preset("gtx280").timings.atomic_ns


def test_fermi_runs_the_suite():
    micro = MeanMicrobench(rounds=10, num_blocks_hint=15)
    for strategy in ("cpu-implicit", "gpu-simple", "gpu-lockfree"):
        result = run(micro, strategy, 15, config=get_preset("fermi_class"))
        assert result.verified is True, strategy


def test_fermi_grid_limit_is_its_sm_count():
    micro = MeanMicrobench(rounds=5, num_blocks_hint=16)
    with pytest.raises(OccupancyError):
        run(micro, "gpu-lockfree", 16, config=get_preset("fermi_class"))


def test_simple_barrier_is_cheap_on_fermi():
    """The generations-study core: cheap atomics make the atomic-counter
    barrier competitive with lock-free."""
    from repro.harness.phases import compute_only, sync_time_ns

    cfg = get_preset("fermi_class")
    micro = MeanMicrobench(rounds=20, num_blocks_hint=15)
    null = compute_only(micro, 15, config=cfg)
    simple = sync_time_ns(run(micro, "gpu-simple", 15, config=cfg), null)
    lockfree = sync_time_ns(run(micro, "gpu-lockfree", 15, config=cfg), null)
    assert simple < 1.5 * lockfree  # within 50% — not the 4.7x of GT200


# -- grid_sync: cooperative co-residency ------------------------------------


def test_grid_sync_synchronizes_grids_larger_than_num_sms():
    cfg = get_preset("grid_sync")
    assert cfg.topology.co_residency == "cooperative"
    blocks = cfg.num_sms + 16  # would deadlock on every exclusive preset
    micro = MeanMicrobench(rounds=5, num_blocks_hint=blocks)
    result = run(micro, "gpu-simple", blocks, config=cfg)
    assert result.verified is True
    assert result.violations == 0


def test_gtx280_still_refuses_grids_beyond_its_sms():
    micro = MeanMicrobench(rounds=5, num_blocks_hint=31)
    with pytest.raises(OccupancyError):
        run(micro, "gpu-simple", 31, config=get_preset("gtx280"))


def test_grid_sync_validates_against_actual_block_shape_capacity():
    # 512-thread blocks: 2048 threads/SM / 512 = 4 co-resident blocks
    # per SM, so 80 SMs hold 320 blocks — well under the topology's
    # 2560-block upper bound.  The cooperative launch check must refuse
    # a 400-block grid before the engine ever runs.
    cfg = get_preset("grid_sync")
    micro = MeanMicrobench(rounds=2, num_blocks_hint=400, threads_per_block=512)
    with pytest.raises(OccupancyError, match="co-resident capacity"):
        run(micro, "gpu-simple", 400, threads_per_block=512, config=cfg)


def test_device_barriers_request_no_shared_memory_under_cooperative():
    from repro.sync import get_strategy

    cfg = get_preset("grid_sync")
    assert get_strategy("gpu-simple").shared_mem_request(cfg) == 0
    exclusive = get_preset("gtx280")
    assert (
        get_strategy("gpu-simple").shared_mem_request(exclusive)
        == exclusive.shared_mem_per_sm
    )


# -- dual_gpu: modeled interconnect -----------------------------------------


def test_dual_gpu_runs_all_barriers_across_the_interconnect():
    cfg = get_preset("dual_gpu")
    micro = MeanMicrobench(rounds=5, num_blocks_hint=60)
    for strategy in ("gpu-simple", "gpu-tree-2", "gpu-lockfree"):
        result = run(micro, strategy, 60, config=cfg)
        assert result.verified is True, strategy
        assert result.violations == 0, strategy


def test_cross_device_arrivals_pay_the_interconnect_latency():
    # The same grid on the same hardware with a free interconnect must
    # finish strictly faster: every cross-device arrival in the real
    # preset carries crossing_ns of extra latency.
    from dataclasses import replace

    from repro.gpu.topology import Topology

    cfg = get_preset("dual_gpu")
    free = replace(
        cfg,
        topology=Topology(
            kind="multi-device",
            num_domains=2,
            co_residency="exclusive",
            crossing_ns=0,
        ),
    )
    micro = MeanMicrobench(rounds=5, num_blocks_hint=8)
    paid = run(micro, "gpu-simple", 8, config=cfg).total_ns
    gratis = run(micro, "gpu-simple", 8, config=free).total_ns
    assert paid > gratis


# -- riscv_cluster_1024 ------------------------------------------------------


def test_riscv_cluster_shape():
    cfg = get_preset("riscv_cluster_1024")
    assert cfg.total_sps == 1024  # 64 clusters x 16 cores
    assert cfg.topology.kind == "cluster"
    assert cfg.topology.num_domains == 16
    assert cfg.num_sms % cfg.topology.num_domains == 0


def test_riscv_cluster_runs_the_hierarchical_barrier():
    cfg = get_preset("riscv_cluster_1024")
    micro = MeanMicrobench(rounds=5, num_blocks_hint=64, threads_per_block=64)
    result = run(
        micro, "gpu-cluster-tree", 64, threads_per_block=64, config=cfg
    )
    assert result.verified is True
    assert result.violations == 0
