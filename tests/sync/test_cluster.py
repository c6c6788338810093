"""Tests for the hierarchical tree-over-clusters barrier."""

import pytest

from repro.algorithms import MeanMicrobench
from repro.errors import SyncProtocolError
from repro.gpu.device import Device
from repro.gpu.presets import get_preset
from repro.harness import run
from repro.sync import GpuClusterTreeSync, get_strategy, strategy_names


def _micro(blocks, rounds=4, threads=64):
    return MeanMicrobench(
        rounds=rounds, num_blocks_hint=blocks, threads_per_block=threads
    )


def test_registered_under_its_name():
    assert "gpu-cluster-tree" in strategy_names()
    strategy = get_strategy("gpu-cluster-tree")
    assert isinstance(strategy, GpuClusterTreeSync)
    assert strategy.mode == "device"


def test_barrier_requires_prepare():
    strategy = GpuClusterTreeSync()
    device = Device(get_preset("riscv_cluster_1024"))
    with pytest.raises(SyncProtocolError, match="prepare"):
        from repro.gpu.context import BlockCtx

        ctx = BlockCtx(device, "k", 0, 4, 64)
        list(strategy.barrier(ctx, 0))


def test_prepare_homes_counters_in_their_domains():
    cfg = get_preset("riscv_cluster_1024")
    device = Device(cfg)
    strategy = GpuClusterTreeSync()
    strategy.prepare(device, 32)
    members = cfg.topology.members_by_domain(32)
    assert set(strategy._members) == set(members)
    for domain in members:
        assert strategy._arrive[domain].home_domain == domain
        assert strategy._release[domain].home_domain == domain
    assert strategy._global is not None
    assert strategy._global.home_domain == min(members)


@pytest.mark.parametrize("blocks", [4, 16, 64])
def test_synchronizes_correctly_on_the_cluster_preset(blocks):
    result = run(
        _micro(blocks),
        "gpu-cluster-tree",
        blocks,
        threads_per_block=64,
        config=get_preset("riscv_cluster_1024"),
    )
    assert result.verified is True
    assert result.violations == 0


def test_degenerates_correctly_on_a_single_domain_device():
    # One domain => one local group + a trivial global phase; still a
    # correct barrier on the paper's GTX 280.
    result = run(
        _micro(8), "gpu-cluster-tree", 8, threads_per_block=64
    )
    assert result.verified is True
    assert result.violations == 0


def test_runs_on_the_dual_gpu_preset():
    result = run(
        _micro(12),
        "gpu-cluster-tree",
        12,
        threads_per_block=64,
        config=get_preset("dual_gpu"),
    )
    assert result.verified is True
    assert result.violations == 0


def test_reuses_state_across_runs():
    # Two back-to-back prepares on the same device must reuse (and
    # re-zero) the allocations instead of exhausting device memory.
    cfg = get_preset("riscv_cluster_1024")
    device = Device(cfg)
    strategy = GpuClusterTreeSync()
    strategy.prepare(device, 32)
    before = device.memory.used_bytes
    strategy.prepare(device, 32)
    assert device.memory.used_bytes == before


def test_only_representatives_cross_the_interconnect():
    # The whole point of the hierarchy: the global counter sees exactly
    # one arrival per occupied domain per round, not one per block.
    cfg = get_preset("riscv_cluster_1024")
    rounds, blocks = 3, 64
    result = run(
        _micro(blocks, rounds=rounds),
        "gpu-cluster-tree",
        blocks,
        threads_per_block=64,
        config=cfg,
        keep_device=True,
    )
    device = result.device
    num_domains = cfg.topology.num_domains
    globals_ = [a for a in device.memory if a.name.startswith("cluster_global")]
    assert len(globals_) == 1
    assert int(globals_[0].data[0]) == rounds * num_domains
