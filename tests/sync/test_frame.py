"""The frame every device barrier shares (``SyncStrategy.barrier``).

Each shipped device strategy implements only its protocol; the base
class adds the probe and hang-fault hooks, the closing
``__syncthreads()`` and the ``sync`` span.  These tests hold every
registered device strategy to that frame, whoever calls the barrier.
"""

from collections import Counter

import pytest

from repro.algorithms import MeanMicrobench
from repro.harness import run
from repro.sanitize import SanitizerProbe
from repro.sync import get_strategy, strategy_names

from tests.sync.conftest import run_barrier_kernel

#: every registered device barrier, minus the removed one and the
#: seeded-bug fixtures.
DEVICE_STRATEGIES = [
    name
    for name in strategy_names()
    if name != "null"
    and not name.startswith("broken-")
    and get_strategy(name).mode == "device"
]

BLOCKS = 4
ROUNDS = 3


@pytest.mark.parametrize("name", DEVICE_STRATEGIES)
def test_direct_barrier_calls_notify_probes(name):
    """A kernel that calls ``strategy.barrier`` itself gets the hooks."""
    probe = SanitizerProbe()
    run_barrier_kernel(get_strategy(name), BLOCKS, ROUNDS, probe=probe)
    seen = Counter((ev.kind, ev.block, ev.round) for ev in probe.barrier_events)
    expected = {
        (kind, block, r): 1
        for kind in ("enter", "exit")
        for block in range(BLOCKS)
        for r in range(ROUNDS)
    }
    assert seen == expected


@pytest.mark.parametrize("name", DEVICE_STRATEGIES)
def test_one_sync_span_per_block_and_round(name):
    """The span ends where the block's closing ``syncthreads`` ends."""
    micro = MeanMicrobench(rounds=ROUNDS, num_blocks_hint=BLOCKS, threads_per_block=32)
    result = run(micro, name, BLOCKS, keep_device=True)
    trace = result.device.trace
    syncs = trace.spans(phase="sync")
    owners = {s.owner for s in syncs}
    assert len(owners) == BLOCKS
    assert Counter((s.owner, s.meta["round"]) for s in syncs) == {
        (owner, r): 1 for owner in owners for r in range(ROUNDS)
    }
    assert {s.meta["strategy"] for s in syncs} == {name}
    closing = {(s.owner, s.end) for s in trace.spans(phase="syncthreads")}
    for span in syncs:
        assert (span.owner, span.end) in closing
