"""Simulator throughput — the one bench where host wall-clock matters.

Measures the discrete-event engine's event rate and the end-to-end cost
of a representative barrier kernel, so regressions in the simulation
core show up as real-time numbers in pytest-benchmark's report.

``test_engine_mode_throughput`` additionally races the fast-path engine
(``engine_mode="fast"``: the reference heap plus the epoch-jump pump and
the flag index, see docs/engine.md) against the reference oracle on the
canonical workload set with :func:`repro.harness.perf.compare` and
persists the comparison as
schema-versioned ``benchmarks/out/BENCH_engine.json`` — the artifact
CI's ``engine-equiv`` job checks so the fast engine stays fast.
"""

from benchmarks.conftest import OUT_DIR
from repro.algorithms import MeanMicrobench
from repro.harness import run
from repro.harness.perf import ENGINE_WORKLOADS, compare, render_bench
from repro.simcore import Delay, Engine


def test_engine_event_throughput(benchmark):
    """Raw event dispatch rate (pure Delay ping-pong)."""

    def spin(n_events: int):
        engine = Engine()

        def proc():
            for _ in range(n_events):
                yield Delay(1)

        engine.spawn(proc())
        engine.run()
        return engine.events_dispatched

    dispatched = benchmark(spin, 20_000)
    assert dispatched == 20_001


def test_engine_mode_throughput(benchmark):
    """Fast engine vs reference on the canonical workloads.

    Shapes (see :mod:`repro.harness.perf`): the epoch-jump pump carries
    the pure-Delay chain, the barrier storm mixes fires with same-time
    wake bursts of declared waiters, and the flag index turns the
    paper's spin wall — the O(spinners x stores) predicate-poll
    explosion — into one cell probe per store; that workload is the
    headline (>= 10x measured here).  ``compare`` refuses to report if
    the two engines' event counts or final clocks diverge, so this bench
    is also an equivalence check.
    """

    def race():
        return {
            name: compare(workload)
            for name, workload in ENGINE_WORKLOADS.items()
        }

    results = benchmark.pedantic(race, rounds=1, iterations=1)
    # The floor asserted here is deliberately below the measured
    # speedups (pingpong ~4x, spin_wall ~20x): CI boxes are noisy, and
    # the regression tripwire only needs to catch "fast mode stopped
    # being fast", not defend the headline number.
    assert results["spin_wall"]["speedup"] >= 2.0
    assert results["pingpong"]["speedup"] >= 1.2
    assert results["barrier_storm"]["speedup"] >= 0.9
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_engine.json"
    path.write_text(render_bench("engine", results) + "\n")


def test_lockfree_micro_wallclock(benchmark):
    """End-to-end: 30-block lock-free micro-benchmark, 100 rounds."""
    micro = MeanMicrobench(rounds=100)

    def go():
        return run(micro, "gpu-lockfree", 30)

    result = benchmark.pedantic(go, rounds=3, iterations=1)
    assert result.verified is True


def test_simple_micro_wallclock(benchmark):
    """End-to-end: 30-block GPU-simple micro-benchmark, 100 rounds
    (atomic-heavy path)."""
    micro = MeanMicrobench(rounds=100)

    def go():
        return run(micro, "gpu-simple", 30)

    result = benchmark.pedantic(go, rounds=3, iterations=1)
    assert result.verified is True
