#!/usr/bin/env python3
"""Prefix sum with every barrier — including the extension barriers.

The Hillis–Steele scan is not one of the paper's three workloads, but it
is the textbook kernel that *needs* a grid barrier (step ``d`` reads
elements other blocks wrote in step ``d-1``).  This example runs it
under the paper's barriers *and* the two classics this library adds
(sense-reversing, dissemination), then exports the comparison as CSV
and a Chrome-tracing timeline for the winner.

Usage::

    python examples/parallel_scan.py [log2_n]
"""

import sys

from repro import PrefixSum, run
from repro.harness.report import format_table
from repro.harness.traceview import write_chrome_trace

STRATEGIES = [
    "cpu-implicit",
    "gpu-simple",
    "gpu-sense-reversal",
    "gpu-tree-2",
    "gpu-dissemination",
    "gpu-lockfree",
]


def main() -> None:
    log2_n = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    num_blocks = 30
    scan = PrefixSum(n=2**log2_n)

    rows = []
    for strategy in STRATEGIES:
        result = run(scan, strategy, num_blocks=num_blocks)
        assert result.verified, strategy
        rows.append((strategy, result.total_ns))

    rows.sort(key=lambda r: r[1])
    print(
        format_table(
            ["strategy", "scan time (ms)"],
            [[name, f"{ns / 1e6:.3f}"] for name, ns in rows],
            title=(
                f"Inclusive scan n={scan.n} "
                f"({scan.num_rounds()} steps, {num_blocks} blocks)"
            ),
        )
    )

    # CSV of the same comparison, for replotting.
    print("\nCSV:")
    print("strategy,total_ns")
    for name, ns in rows:
        print(f"{name},{ns}")

    # A Chrome-tracing timeline of the winner's execution.
    best = rows[0][0]
    result = run(scan, best, num_blocks=num_blocks, keep_device=True)
    path = write_chrome_trace(result.device.trace, "scan_trace.json")
    print(
        f"\nwrote {len(result.device.trace)} spans of the {best!r} run to "
        f"{path} — open in chrome://tracing or ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
