"""Extension study — the two classic barriers and the scan workload.

Beyond the paper: how do a centralized sense-reversing barrier and a
dissemination barrier (the shapes the later grid-sync literature
explored) stack up against the paper's three proposals on this device
model, and does the ranking carry to a fourth workload (prefix scan)?

Expected shape: lock-free < dissemination < tree-2 < sense-reversal ≈
simple-plus-two-stores at 30 blocks; dissemination's O(log N) depth
makes it the best *decentralized* barrier.
"""

from benchmarks.conftest import save_report
from repro.algorithms import PrefixSum
from repro.harness import probe_barrier_cost, run
from repro.harness.report import format_table

ROUNDS = 100
BLOCKS = 30

DEVICE_BARRIERS = [
    "gpu-simple",
    "gpu-sense-reversal",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-dissemination",
    "gpu-lockfree",
]


def test_extension_barriers_micro(benchmark):
    """Per-round barrier cost of all six device barriers at 30 blocks."""

    def measure():
        # The probe verifies every run; a wrong answer raises.
        return {
            strat: probe_barrier_cost(strat, BLOCKS, probe_rounds=ROUNDS)
            for strat in DEVICE_BARRIERS
        }

    costs = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The expected ranking at 30 blocks.
    assert costs["gpu-lockfree"] < costs["gpu-dissemination"]
    assert costs["gpu-dissemination"] < costs["gpu-tree-2"]
    assert costs["gpu-tree-2"] < costs["gpu-simple"]
    assert costs["gpu-simple"] < costs["gpu-sense-reversal"]
    save_report(
        "extensions_micro",
        format_table(
            ["barrier", "per-round cost (µs)"],
            [
                [name, f"{cost/1e3:.2f}"]
                for name, cost in sorted(costs.items(), key=lambda kv: kv[1])
            ],
            title=f"Extension barriers — micro, {BLOCKS} blocks",
        ),
    )


def test_extension_workload_scan(benchmark):
    """Prefix scan end-to-end under the main strategy families."""

    def measure():
        scan = PrefixSum(n=2**14)
        totals = {}
        for strat in ("cpu-implicit", "gpu-tree-2", "gpu-dissemination",
                      "gpu-lockfree"):
            result = run(scan, strat, BLOCKS)
            assert result.verified
            totals[strat] = result.total_ns
        return totals

    totals = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert totals["gpu-lockfree"] < totals["gpu-dissemination"]
    assert totals["gpu-dissemination"] < totals["cpu-implicit"]
    save_report(
        "extensions_scan",
        format_table(
            ["strategy", "scan time (ms)"],
            [
                [name, f"{ns/1e6:.3f}"]
                for name, ns in sorted(totals.items(), key=lambda kv: kv[1])
            ],
            title="Prefix scan (n=2^14) — extension workload",
        ),
    )
