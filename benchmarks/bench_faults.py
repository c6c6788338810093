"""Fault-injection overhead: unarmed hooks vs plain simulation.

The injection points in :class:`~repro.gpu.context.BlockCtx`, the
kernel dispatcher and the barrier wrapper all sit behind a single
``device.faults is not None`` check — the same zero-overhead pattern as
the sanitizer's probe list.  This bench proves the claim: a run with
fault injection compiled in but *disarmed* (``faults=None``) must cost
the same as the pre-subsystem plain run, within noise, and a run armed
with an empty-effect plan must stay a small constant factor.  Writes
``benchmarks/out/faults_overhead.txt``.

An armed run is never fast-forwarded (a fault plan can perturb any
round), so both sides run a micro-benchmark that opts out of
fast-forward: each simulates every round, and the ratio prices the
hooks, not the rounds a plain run would skip.
"""

from time import perf_counter

from benchmarks.conftest import save_report
from repro.faults import FaultPlan, FaultSpec
from repro.harness.report import format_table
from repro.harness.runner import run
from repro.sanitize import SkewedMicrobench

STRATEGY = "gpu-lockfree"
REPS = 10


class _EveryRound(SkewedMicrobench):
    """The skewed micro-benchmark, never fast-forwarded."""

    skip_rounds = None


def _algo(blocks: int, rounds: int) -> SkewedMicrobench:
    return _EveryRound(
        rounds=rounds, num_blocks_hint=blocks, threads_per_block=64
    )


def test_disarmed_injection_adds_no_measurable_overhead(
    benchmark, sanitize_bench_shape
):
    blocks, rounds = sanitize_bench_shape

    def plain() -> None:
        result = run(_algo(blocks, rounds), STRATEGY, blocks)
        assert result.verified is True

    def armed() -> None:
        # Armed with a plan that targets a block outside the grid:
        # every hook runs its guard, no fault ever fires.
        plan = FaultPlan([FaultSpec("spurious-wakeup", block=blocks + 7, count=1)])
        result = run(_algo(blocks, rounds), STRATEGY, blocks, faults=plan)
        assert result.verified is True
        assert plan.fired == []

    def measure():
        # Interleave the two configurations, and alternate which runs
        # first in each rep, so warmup and cache noise land on both
        # sides equally.
        spent = {plain: 0.0, armed: 0.0}
        for rep in range(REPS):
            for side in (plain, armed) if rep % 2 == 0 else (armed, plain):
                t0 = perf_counter()
                side()
                spent[side] += perf_counter() - t0
        return spent[plain], spent[armed]

    plain_s, armed_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = armed_s / plain_s
    table = format_table(
        ["configuration", "wall time (s)", "per run (ms)"],
        [
            [f"plain ×{REPS}", f"{plain_s:.3f}", f"{1e3 * plain_s / REPS:.1f}"],
            [
                f"armed, no-op plan ×{REPS}",
                f"{armed_s:.3f}",
                f"{1e3 * armed_s / REPS:.1f}",
            ],
            ["overhead factor", f"{ratio:.2f}×", ""],
        ],
        title=(
            f"Fault-injection overhead — {STRATEGY}, {blocks} blocks × "
            f"{rounds} rounds (armed side runs a no-op plan)"
        ),
    )
    save_report("faults_overhead", table)

    # Generous wall-clock bound (CI noise included): the armed side adds
    # one predicate per hook, nothing more.
    assert ratio < 3, f"disarmed-injection overhead {ratio:.1f}× exceeds budget"
