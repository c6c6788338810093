"""CI bench smoke: the fast engine must never be slower than reference.

Races ``engine_mode="fast"`` against the reference oracle on every
canonical engine workload (:data:`repro.harness.perf.ENGINE_WORKLOADS`)
and exits non-zero when any speedup falls below the noise band — the
``engine-equiv`` job's tripwire for "the fast path quietly became a slow
path".  ``compare`` itself refuses to report if the two engines
disagree on event count or final virtual clock, so a correctness
regression fails this script too.

The floor is 0.9x, not 1.0x: shared CI boxes jitter by more than a few
percent, and the regression this guards against is a structural slowdown
(an accidental O(n) scan, a dropped fast path), not a 5% wobble.  The
headline speedups themselves (>= 10x on the spin wall) are asserted by
``benchmarks/bench_engine.py`` and recorded in
``benchmarks/out/BENCH_engine.json``.
"""

from __future__ import annotations

import sys

from repro.errors import ExperimentError
from repro.harness.perf import ENGINE_WORKLOADS, compare

#: minimum acceptable fast/reference speedup on any workload.
NOISE_FLOOR = 0.9


def main() -> int:
    failures = []
    for name, workload in ENGINE_WORKLOADS.items():
        try:
            result = compare(workload)
        except ExperimentError as exc:
            print(f"{name}: DIVERGED - {exc}", file=sys.stderr)
            failures.append(name)
            continue
        ref = result["reference"]
        fast = result["fast"]
        speedup = result["speedup"]
        print(
            f"{name:14s} events={ref['events']:>8d}  "
            f"ref {ref['events_per_sec']:>12,.0f} ev/s  "
            f"fast {fast['events_per_sec']:>12,.0f} ev/s  "
            f"speedup {speedup:5.2f}x"
        )
        if speedup < NOISE_FLOOR:
            print(
                f"{name}: fast engine speedup {speedup:.2f}x is below the "
                f"{NOISE_FLOOR}x noise floor",
                file=sys.stderr,
            )
            failures.append(name)
    if failures:
        print(f"bench smoke FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("bench smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
