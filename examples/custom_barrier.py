#!/usr/bin/env python3
"""Build, verify and measure your own grid barrier (see
docs/tutorial_custom_barrier.md for the narrated version).

Implements a *ticket barrier* against the public strategy interface,
proves it correct on the paper's workloads, and compares its measured
cost with the bundled strategies.

Usage::

    python examples/custom_barrier.py
"""

from itertools import count
from typing import Generator

import numpy as np

from repro import BitonicSort, FFT, SmithWaterman, run
from repro.harness import probe_barrier_cost
from repro.harness.report import format_table
from repro.sync.base import SyncStrategy, register_strategy

_IDS = count()


class TicketBarrier(SyncStrategy):
    """Centralized ticket barrier: the last ticket-holder releases."""

    name = "gpu-ticket"
    mode = "device"

    def __init__(self) -> None:
        self._uid = next(_IDS)
        self._tickets = None
        self._epoch = None
        self._num_blocks = 0

    def prepare(self, device, num_blocks: int) -> None:
        self.validate_grid(device.config, num_blocks)
        self._num_blocks = num_blocks
        self._tickets = device.memory.alloc(
            f"tickets#{self._uid}", 1, dtype=np.int64
        )
        self._epoch = device.memory.alloc(
            f"epoch#{self._uid}", 1, dtype=np.int64
        )

    def barrier(self, ctx, round_idx: int) -> Generator:
        start = ctx.now
        goal = (round_idx + 1) * self._num_blocks
        epoch = round_idx + 1
        ticket = yield from ctx.atomic_add(self._tickets, 0, 1)
        if ticket == goal - 1:
            yield from ctx.gwrite(self._epoch, 0, epoch)
        else:
            yield from ctx.spin_until(
                self._epoch,
                lambda e=self._epoch, t=epoch: e.data[0] >= t,
                f"epoch {epoch}",
            )
        yield from ctx.syncthreads()
        ctx.record("sync", start, round=round_idx, strategy=self.name)


def main() -> None:
    register_strategy("gpu-ticket", TicketBarrier)

    # -- 1. verify on real workloads ----------------------------------------
    print("verifying gpu-ticket on the paper's workloads...")
    for algo in (FFT(n=1024), SmithWaterman(64, 64), BitonicSort(n=512)):
        result = run(algo, "gpu-ticket", num_blocks=8, threads_per_block=64)
        assert result.verified and result.violations == 0
        print(f"  {algo.name:8s} ok ({result.rounds} rounds)")

    # -- 2. measure against the bundled strategies ---------------------------
    rows = []
    for strat in (
        "gpu-ticket",
        "gpu-simple",
        "gpu-sense-reversal",
        "gpu-tree-2",
        "gpu-dissemination",
        "gpu-lockfree",
    ):
        cost = probe_barrier_cost(strat, 30)
        rows.append((strat, cost))
    rows.sort(key=lambda r: r[1])
    print()
    print(
        format_table(
            ["barrier", "per-round cost (µs), 30 blocks"],
            [[name, f"{cost/1e3:.2f}"] for name, cost in rows],
            title="Your barrier vs the bundled ones",
        )
    )
    ticket = dict(rows)["gpu-ticket"]
    simple = dict(rows)["gpu-simple"]
    print(
        f"\nThe ticket barrier costs {(ticket - simple)/1e3:.2f} µs more "
        "than gpu-simple per round: the explicit release store (300 ns, "
        "partially hidden by round-to-round pipelining) — the overhead "
        "the paper's accumulating goalVal avoids (§5.1)."
    )


if __name__ == "__main__":
    main()
