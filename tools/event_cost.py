#!/usr/bin/env python
"""Bytecodes the simulator executes per engine event, by module.

Runs the paper's three kernels at 30 blocks under ``cpu-implicit`` and
``gpu-lockfree`` (FFT 2^15, Smith-Waterman 64x64 and bitonic sort
2^14, the non-null cells of the ``kernels_30`` benchmark workload)
through :func:`repro.run`, counts every bytecode instruction with
``sys.settrace`` opcode events, and divides by the events the engine
dispatched.  Each cell runs once untraced first, so per-process caches
(kernel tables, the Smith-Waterman reference fill) are warm and the
count does not depend on cell order.

The count is deterministic for a given interpreter version: unlike wall
time it does not move with host load, so it makes a stable gate for the
per-event host cost::

    python tools/event_cost.py
    python tools/event_cost.py --fail-above 230

With ``--fail-above N`` the script exits 1 when either Smith-Waterman
cell (the barrier-bound event streams, where the per-event cost is the
bottleneck) executes more than ``N`` opcodes per event.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro import FFT, BitonicSort, SmithWaterman, run  # noqa: E402

BLOCKS = 30
STRATEGIES = ("cpu-implicit", "gpu-lockfree")
KERNELS: Dict[str, Callable[[], object]] = {
    "fft": lambda: FFT(2**15, seed=0),
    "swat": lambda: SmithWaterman(64, 64, seed=0),
    "bitonic": lambda: BitonicSort(2**14, seed=0),
}
#: the cells ``--fail-above`` gates.
GATED = ("swat/gpu-lockfree", "swat/cpu-implicit")
#: modules listed per cell; the others are summed as ``(rest)``.
SHOWN = 6


def _module(filename: str) -> str:
    """``repro``-relative module path of ``filename``, or ``other``."""
    path = Path(filename)
    try:
        return path.relative_to(SRC / "repro").as_posix()
    except ValueError:
        return "other"


def measure(kernel: str, strategy: str) -> Tuple[int, Dict[str, int]]:
    """``(events, opcodes per module)`` for one warm cell."""
    make = KERNELS[kernel]
    run(make(), strategy, BLOCKS)  # warm per-process caches
    algorithm = make()
    counts: Dict[object, int] = defaultdict(int)

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def tracer(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(tracer)
    try:
        result = run(algorithm, strategy, BLOCKS, keep_device=True)
    finally:
        sys.settrace(None)
    by_module: Dict[str, int] = defaultdict(int)
    for code, n in counts.items():
        by_module[_module(code.co_filename)] += n
    return result.device.engine.events_dispatched, dict(by_module)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fail-above", type=float, default=None, metavar="N",
        help=f"exit 1 if {' or '.join(GATED)} exceeds N opcodes/event",
    )
    args = parser.parse_args(argv)

    per_event: Dict[str, float] = {}
    for kernel in KERNELS:
        for strategy in STRATEGIES:
            cell = f"{kernel}/{strategy}"
            events, by_module = measure(kernel, strategy)
            total = sum(by_module.values())
            per_event[cell] = total / events
            print(f"{cell}: {events} events, {total / events:.1f} opcodes/event")
            ranked = sorted(by_module.items(), key=lambda kv: (-kv[1], kv[0]))
            shown = [kv for kv in ranked if kv[0] != "other"][:SHOWN]
            rest = total - sum(n for _m, n in shown)
            for module, n in shown + [("(rest)", rest)]:
                print(f"    {module:<28} {n / events:7.1f}")

    if args.fail_above is None:
        return 0
    over = [c for c in GATED if per_event[c] > args.fail_above]
    for cell in over:
        print(
            f"FAIL: {cell} executes {per_event[cell]:.1f} opcodes/event "
            f"(limit {args.fail_above:g})"
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
