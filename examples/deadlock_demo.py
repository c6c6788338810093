#!/usr/bin/env python3
"""Why device barriers need a one-to-one block↔SM mapping (paper §5).

CUDA blocks are non-preemptive: once scheduled, a block holds its SM
until it finishes.  If a grid has more blocks than can be co-resident
and the resident ones spin at a device-side barrier, the extra blocks
never run — and the resident ones never stop spinning.  The paper's fix
is to cap the grid at one block per SM (by claiming all shared memory).

This demo shows all four outcomes on the simulator:

1. the library's guard rejects an unsafe grid up front
   (``OccupancyError``);
2. bypassing the guard produces a *detected* deadlock
   (``DeadlockError``), naming exactly who is stuck on what;
3. the driver kills the same launch mid-run (an injected ``driver-kill``
   fault, as a display watchdog or a driver reset would): the kill
   looks like it did to 2009 developers — ``cudaGetLastError``-style
   state reports it, and the device keeps working;
4. the same kernel at the SM count runs fine.

Usage::

    python examples/deadlock_demo.py
"""

import numpy as np

from repro import (
    DeadlockError,
    FaultPlan,
    FaultSpec,
    MeanMicrobench,
    OccupancyError,
    run,
)
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec


def unsafe_kernel(device: Device, n: int) -> KernelSpec:
    """``n`` blocks, one per SM, meeting at a naive atomic grid barrier."""
    arrivals = device.memory.alloc("arrivals", 1, dtype=np.int64)

    def naive_barrier(ctx):
        yield from ctx.atomic_add(arrivals, 0, 1)
        yield from ctx.spin_until(
            arrivals, lambda: arrivals.data[0] >= n, "naive grid barrier"
        )

    return KernelSpec(
        name="unsafe",
        program=naive_barrier,
        grid_blocks=n,
        block_threads=64,
        shared_mem_per_block=device.config.shared_mem_per_sm,
    )


def main() -> None:
    # --- 1. the guard ------------------------------------------------------
    micro = MeanMicrobench(rounds=5, num_blocks_hint=31)
    try:
        # Deliberately one block past the SM count — the demo exists to
        # show the occupancy guard refusing exactly this launch.
        run(micro, "gpu-lockfree", num_blocks=31)  # repro: noqa SC002
    except OccupancyError as exc:
        print(f"[1] guard refused the launch:\n    {exc}\n")

    # --- 2. bypassing the guard: a real deadlock --------------------------
    device = Device()
    host = Host(device)
    n = device.config.num_sms + 1  # 31 blocks, 30 SMs
    spec = unsafe_kernel(device, n)

    def host_program():
        yield from host.launch(spec)
        yield from host.synchronize()

    device.engine.spawn(host_program(), "host")
    try:
        device.run()
    except DeadlockError as exc:
        spinning = sum(1 for _n, r in exc.blocked if "naive" in r)
        waiting = sum(1 for _n, r in exc.blocked if "SM slot" in r)
        print(
            f"[2] bypassed guard → deadlock detected: {spinning} blocks "
            f"spinning at the barrier, {waiting} starved for an SM slot "
            f"(plus the host and kernel bookkeeping processes).\n"
        )

    # --- 3. the driver kills the launch; the device survives -------------
    kill_at_ns = 2_000_000
    device3 = Device(
        faults=FaultPlan([FaultSpec("driver-kill", at_ns=kill_at_ns)])
    )
    host3 = Host(device3)
    spec3 = unsafe_kernel(device3, n)

    def follow_up_program(ctx):
        yield from ctx.compute(500)

    follow_up = KernelSpec(
        "follow-up", follow_up_program, grid_blocks=4, block_threads=64
    )
    errors = []

    def host_program3():
        yield from host3.launch(spec3)
        yield from host3.synchronize()
        errors.append(host3.get_last_error())
        yield from host3.launch(follow_up)
        yield from host3.synchronize()

    device3.engine.spawn(host_program3(), "host")
    device3.run()
    print(
        f"[3] the driver killed the launch after {kill_at_ns / 1e6:.0f} ms; "
        f"cudaGetLastError-style state says:\n    {errors[0]!r}\n"
        f"    a later 4-block kernel then ran: "
        f"{device3.kernels_completed} kernel(s) completed, "
        f"{len(device3.engine.live_processes)} process(es) left.\n"
    )

    # --- 4. the safe configuration ----------------------------------------
    result = run(
        MeanMicrobench(rounds=5, num_blocks_hint=30), "gpu-lockfree", num_blocks=30
    )
    print(
        f"[4] same barrier at 30 blocks (= #SMs): completed in "
        f"{result.total_ms:.3f} ms, verified={result.verified}."
    )


if __name__ == "__main__":
    main()
