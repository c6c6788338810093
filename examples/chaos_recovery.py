#!/usr/bin/env python3
"""Surviving a hung block: stall detection → retry → graceful degradation.

A CUDA block that dies before reaching a device-side spin barrier hangs
the whole grid forever (paper §5: blocks are non-preemptive and the
barrier has no timeout).  This demo injects exactly that fault and
walks the resilient runtime's full escalation ladder:

1. a seeded :class:`repro.faults.FaultPlan` hangs one block before the
   barrier of round 1 — *persistently*, so relaunching cannot help;
2. a single armed run fails fast and *typed*: the engine's event queue
   drains with blocks still parked, so no process can ever make progress
   again, and the runner raises ``BarrierTimeoutError`` at the time of
   the stall, naming the injected hang (instead of the terminal
   ``DeadlockError`` a run without a fault plan dies of);
3. ``repro.run(..., recover=True)`` — the same entry point with the
   recovery policy on — retries with virtual-time backoff; the hang
   re-fires every attempt, so it then *degrades*: it swaps the device
   barrier for the host-side ``cpu-implicit`` barrier, which a hung
   barrier round structurally cannot deadlock (the kernel boundary
   itself synchronizes, paper §4.1), and finishes verified.

Usage::

    python examples/chaos_recovery.py
"""

from repro import run
from repro.errors import BarrierTimeoutError
from repro.faults import FaultPlan, FaultSpec
from repro.sanitize import SkewedMicrobench


def micro() -> SkewedMicrobench:
    return SkewedMicrobench(rounds=4, num_blocks_hint=8)


def main() -> None:
    plan = FaultPlan([FaultSpec("hang", block=3, round=1)])
    print(f"[1] fault plan: {', '.join(plan.descriptions)}\n")

    # --- 2. one armed attempt: typed, recoverable failure -----------------
    try:
        run(micro(), "gpu-lockfree", num_blocks=8, faults=plan)
    except BarrierTimeoutError as exc:
        stuck = [name for name, _ in exc.stuck if "/b" in name]
        hung = [r for _, r in exc.stuck if "injected hang" in r]
        print(
            f"[2] the kernel stalled at t={exc.fired_at_ns} ns:\n"
            f"    {len(stuck)} blocks parked; root cause reported as\n"
            f"    {hung[0]!r}\n"
        )

    # --- 3. the full runtime: retry, then degrade --------------------------
    plan = FaultPlan([FaultSpec("hang", block=3, round=1)])
    result = run(
        micro(),
        "gpu-lockfree",
        num_blocks=8,
        faults=plan,
        recover=True,
    )
    for event in result.recovery:
        print(f"[3] attempt {event.attempt}: {event.kind:8s} {event.detail[:68]}")
    print(
        f"\n    survived: verified={result.verified} on "
        f"{result.strategy!r} (degraded from {result.degraded_from!r}), "
        f"{result.attempts} attempts, {result.faults_fired} faults fired,\n"
        f"    {result.total_ms:.3f} ms total including "
        f"{result.retry_overhead_ns / 1e6:.3f} ms of retry overhead."
    )


if __name__ == "__main__":
    main()
