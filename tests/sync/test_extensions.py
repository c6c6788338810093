"""Tests for the extension barriers (sense-reversal, dissemination)."""

import pytest

from repro.errors import SyncProtocolError
from repro.model.barrier_costs import (
    dissemination_cost,
    lockfree_cost,
    sense_reversal_cost,
    simple_cost,
)
from repro.sync import GpuDisseminationSync, GpuSenseReversalSync, get_strategy

from tests.sync.conftest import assert_barrier_invariant, run_barrier_kernel


def per_round(strategy, n, rounds=3, compute_ns=0):
    total, events, dev = run_barrier_kernel(
        strategy, n, rounds, compute_ns=compute_ns
    )
    t = dev.config.timings
    overhead = (
        t.host_launch_ns
        + t.kernel_setup_ns
        + t.kernel_teardown_ns
        + rounds * compute_ns * 0  # compute excluded by caller choice
    )
    return (total - overhead) / rounds, events, dev


class TestSenseReversal:
    @pytest.mark.parametrize("num_blocks", [1, 2, 7, 16, 30])
    def test_barrier_invariant(self, num_blocks):
        strat = GpuSenseReversalSync()
        _t, events, _d = run_barrier_kernel(strat, num_blocks, rounds=4)
        assert_barrier_invariant(events, num_blocks, 4)

    def test_barrier_invariant_staggered(self):
        strat = GpuSenseReversalSync()
        _t, events, _d = run_barrier_kernel(
            strat, num_blocks=9, rounds=4, compute_ns=350
        )
        assert_barrier_invariant(events, 9, 4)

    def test_cost_matches_model(self):
        """The model is a simultaneous-arrival upper bound: the last
        arriver skips the spin observation, so from round 1 on it enters
        the next atomic chain one spin-read early and shaves up to
        ``spin_read_ns`` off each subsequent round."""
        for n in (2, 8, 30):
            cost, _e, dev = per_round(GpuSenseReversalSync(), n)
            t = dev.config.timings
            model = sense_reversal_cost(n, t)
            assert model - t.spin_read_ns <= cost <= model

    def test_counter_resets_every_round(self):
        strat = GpuSenseReversalSync()
        _t, _e, dev = run_barrier_kernel(strat, num_blocks=6, rounds=3)
        assert dev.memory.get(f"sr_count#{strat._uid}").data[0] == 0
        assert dev.memory.get(f"sr_sense#{strat._uid}").data[0] == 3

    def test_costlier_than_accumulating_simple(self):
        """Quantifies the paper's §5.1 optimization: goal accumulation
        saves the reset + sense stores."""
        t = None
        for n in (4, 16, 30):
            cost, _e, dev = per_round(GpuSenseReversalSync(), n)
            assert cost > simple_cost(n, dev.config.timings)

    def test_before_prepare_rejected(self):
        with pytest.raises(SyncProtocolError, match="prepare"):
            next(GpuSenseReversalSync().barrier(None, 0))

    def test_registered(self):
        assert isinstance(
            get_strategy("gpu-sense-reversal"), GpuSenseReversalSync
        )


class TestDissemination:
    @pytest.mark.parametrize("num_blocks", [1, 2, 3, 8, 17, 30])
    def test_barrier_invariant(self, num_blocks):
        strat = GpuDisseminationSync()
        _t, events, _d = run_barrier_kernel(strat, num_blocks, rounds=4)
        assert_barrier_invariant(events, num_blocks, 4)

    def test_barrier_invariant_staggered(self):
        strat = GpuDisseminationSync()
        _t, events, _d = run_barrier_kernel(
            strat, num_blocks=11, rounds=5, compute_ns=500
        )
        assert_barrier_invariant(events, 11, 5)

    def test_no_atomics(self):
        strat = GpuDisseminationSync()
        _t, _e, dev = run_barrier_kernel(strat, num_blocks=16, rounds=5)
        assert dev.atomics.ops == 0

    def test_cost_matches_model_logarithmic(self):
        costs = {}
        for n in (2, 4, 16, 30):
            cost, _e, dev = per_round(GpuDisseminationSync(), n)
            assert cost == dissemination_cost(n, dev.config.timings)
            costs[n] = cost
        # Logarithmic growth: 16 and 30 blocks need 4 and 5 rounds.
        assert costs[2] < costs[4] < costs[16] < costs[30]

    def test_between_lockfree_and_simple_at_scale(self):
        """At 30 blocks: lock-free < dissemination < simple — the niche
        later grid-sync work explored."""
        n = 30
        dis, _e, dev = per_round(GpuDisseminationSync(), n)
        t = dev.config.timings
        assert lockfree_cost(n, t) < dis < simple_cost(n, t)

    def test_single_block_trivial(self):
        cost, _e, dev = per_round(GpuDisseminationSync(), 1)
        assert cost == dev.config.timings.syncthreads_ns

    def test_before_prepare_rejected(self):
        with pytest.raises(SyncProtocolError, match="prepare"):
            next(GpuDisseminationSync().barrier(None, 0))

    def test_registered(self):
        assert isinstance(
            get_strategy("gpu-dissemination"), GpuDisseminationSync
        )


class TestExtensionsEndToEnd:
    @pytest.mark.parametrize(
        "strategy", ["gpu-sense-reversal", "gpu-dissemination"]
    )
    def test_fft_correct(self, strategy):
        from repro.algorithms import FFT
        from repro.harness import run

        result = run(FFT(n=256), strategy, num_blocks=7, threads_per_block=64)
        assert result.verified is True
        assert result.violations == 0
