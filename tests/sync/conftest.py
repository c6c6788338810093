"""Shared fixtures for synchronization-strategy tests."""

from typing import List, Tuple

import pytest

from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.sync.base import SyncStrategy


def run_barrier_kernel(
    strategy: SyncStrategy,
    num_blocks: int,
    rounds: int,
    compute_ns: int = 0,
    threads: int = 64,
    probe=None,
) -> Tuple[int, List[Tuple[int, int, int]], Device]:
    """Run a kernel that is nothing but rounds of (compute, barrier).

    Returns ``(total_ns, events, device)`` where ``events`` records
    ``(round, block, time)`` at each block's barrier *exit* — enough to
    assert the fundamental barrier invariant.  ``probe`` (a
    :class:`repro.sanitize.SanitizerProbe`) is registered on the device.
    """
    device = Device()
    if probe is not None:
        device.probes.append(probe)
    host = Host(device)
    strategy.prepare(device, num_blocks)
    events: List[Tuple[int, int, int]] = []

    def program(ctx):
        for r in range(rounds):
            if compute_ns:
                # Stagger computation by block id so blocks arrive at the
                # barrier at different times — a stronger test than
                # simultaneous arrival.
                yield from ctx.compute(compute_ns * (1 + ctx.block_id % 3))
            yield from strategy.barrier(ctx, r)
            events.append((r, ctx.block_id, ctx.now))

    spec = KernelSpec(
        name=f"bar:{strategy.name}",
        program=program,
        grid_blocks=num_blocks,
        block_threads=threads,
        shared_mem_per_block=strategy.shared_mem_request(device.config),
    )

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    total = device.run()
    return total, events, device


def assert_barrier_invariant(events, num_blocks: int, rounds: int) -> None:
    """No block exits barrier ``r`` before every block *entered* it.

    With exit timestamps this is checkable as: the earliest exit of round
    ``r`` must not precede the latest exit of round ``r-1`` minus the
    release latency — we use the stronger, simpler form that every round-r
    exit happens at or after every round-(r-1) exit, which holds for all
    our barriers because release is collective.
    """
    by_round = {}
    for r, block, t in events:
        by_round.setdefault(r, []).append(t)
    for r in range(rounds):
        assert len(by_round[r]) == num_blocks, f"round {r} missing exits"
    for r in range(1, rounds):
        assert min(by_round[r]) >= max(by_round[r - 1]), (
            f"round {r} exit at {min(by_round[r])} precedes round {r-1} "
            f"exit at {max(by_round[r - 1])}"
        )


@pytest.fixture
def device():
    return Device()
