"""Tests for GPU tree-based synchronization (paper §5.2)."""

import pytest

from repro.errors import SyncProtocolError
from repro.model.barrier_costs import tree_cost, tree_level_plan
from repro.sync import GpuTreeSync

from tests.sync.conftest import assert_barrier_invariant, run_barrier_kernel


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("num_blocks", [1, 2, 9, 11, 16, 25, 30])
def test_barrier_invariant(levels, num_blocks):
    strat = GpuTreeSync(levels=levels)
    _total, events, _dev = run_barrier_kernel(strat, num_blocks, rounds=3)
    assert_barrier_invariant(events, num_blocks, 3)


@pytest.mark.parametrize("levels", [2, 3])
def test_barrier_invariant_staggered(levels):
    strat = GpuTreeSync(levels=levels)
    _total, events, _dev = run_barrier_kernel(
        strat, num_blocks=13, rounds=4, compute_ns=450
    )
    assert_barrier_invariant(events, 13, 4)


def test_two_level_cost_matches_eq7_balanced():
    """For balanced partitions measurement equals the Eq. 7 prediction."""
    for n in (16, 25, 30):  # partitions with equal-arrival critical paths
        strat = GpuTreeSync(levels=2)
        rounds = 2
        total, _e, dev = run_barrier_kernel(strat, n, rounds)
        t = dev.config.timings
        overhead = t.host_launch_ns + t.kernel_setup_ns + t.kernel_teardown_ns
        per_round = (total - overhead) / rounds
        assert per_round == tree_cost(n, 2, t)


def test_unbalanced_tree_measures_at_most_model():
    """Eq. 7 assumes simultaneous arrival — an upper bound in practice."""
    for n in (11, 23, 29):
        for levels in (2, 3):
            strat = GpuTreeSync(levels=levels)
            rounds = 2
            total, _e, dev = run_barrier_kernel(strat, n, rounds)
            t = dev.config.timings
            overhead = t.host_launch_ns + t.kernel_setup_ns + t.kernel_teardown_ns
            per_round = (total - overhead) / rounds
            assert per_round <= tree_cost(n, levels, t)


def test_atomic_counts_follow_plan():
    """Atomics per round = Σ level participants (every participant adds once)."""
    n, levels, rounds = 14, 2, 3
    strat = GpuTreeSync(levels=levels)
    _t, _e, dev = run_barrier_kernel(strat, n, rounds)
    plan = tree_level_plan(n, levels)
    expected_per_round = sum(sum(sizes) for sizes in plan)
    assert dev.atomics.ops == expected_per_round * rounds


def test_mutex_arrays_sized_by_plan(device):
    strat = GpuTreeSync(levels=3)
    strat.prepare(device, 27)
    plan = tree_level_plan(27, 3)
    for level, sizes in enumerate(plan):
        mutex = device.memory.get(f"tree_mutex#{strat._uid}_L{level}")
        assert mutex.shape == (len(sizes),)


def test_deeper_trees_supported():
    strat = GpuTreeSync(levels=4)
    _total, events, _dev = run_barrier_kernel(strat, num_blocks=30, rounds=2)
    assert_barrier_invariant(events, 30, 2)


def test_invalid_levels_rejected():
    with pytest.raises(SyncProtocolError):
        GpuTreeSync(levels=1)


@pytest.mark.parametrize("levels", [2.5, 4.0, "3", True, None])
def test_non_int_levels_rejected(levels):
    with pytest.raises(SyncProtocolError, match="levels"):
        GpuTreeSync(levels=levels)


def test_barrier_before_prepare_rejected():
    with pytest.raises(SyncProtocolError, match="prepare"):
        next(GpuTreeSync().barrier(None, 0))


def test_name_includes_levels():
    assert GpuTreeSync(levels=2).name == "gpu-tree-2"
    assert GpuTreeSync(levels=3).name == "gpu-tree-3"
