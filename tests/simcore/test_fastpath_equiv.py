"""Differential suite: the fast engine against the reference oracle.

``engine_mode="fast"`` (docs/engine.md) is only allowed to change
wall-clock time.  Every test here runs the same configuration under both
event cores and demands byte-identical observables — RunResult fields,
full event traces, final virtual clocks, dispatch counts, serialized
sweeps — including under seeded schedule fuzzing and on the seeded-bug
``broken-*`` mutants (where the *failure* must be identical too).

Allocation names carry per-strategy-instance uids (``g_mutex#3``); two
fresh instances of one strategy differ only in that counter, so
snapshots normalize ``#<digits>`` to ``#N`` before comparing.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Optional, Tuple

import pytest

from repro.algorithms import MeanMicrobench
from repro.gpu.presets import get_preset, preset_names
from repro.harness import experiments
from repro.harness.runner import run
from repro.sanitize import ScheduleFuzzer, derive_seeds
from repro.simcore import use_engine_mode

_UID = re.compile(r"#\d+")

STRATEGIES = [
    "cpu-explicit",
    "cpu-implicit",
    "gpu-simple",
    "gpu-simple-reset",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-lockfree",
    "gpu-lockfree-serial",
    "gpu-lockfree-detailed",
]

#: seeded-bug fixtures (repro.sanitize.mutants): one deadlock, one
#: premature release, one divergence — the failure modes must match too.
MUTANTS = [
    "broken-lockfree-noscatter",
    "broken-simple-undercount",
    "broken-simple-skipround",
]

#: device-mode strategies exercised under the schedule fuzzer (the
#: fuzzer permutes same-time ordering, which only they are sensitive to).
FUZZED = ["gpu-simple", "gpu-simple-reset", "gpu-tree-2", "gpu-lockfree",
          "gpu-lockfree-detailed"]


def _norm(obj: Any) -> Any:
    """Normalize strategy-instance uids (``#7`` -> ``#N``) recursively."""
    if isinstance(obj, str):
        return _UID.sub("#N", obj)
    if isinstance(obj, tuple):
        return tuple(_norm(o) for o in obj)
    if isinstance(obj, list):
        return [_norm(o) for o in obj]
    if isinstance(obj, dict):
        return {_norm(k): _norm(v) for k, v in obj.items()}
    return obj


def _snapshot(
    strategy: str,
    mode: str,
    rounds: int = 4,
    blocks: int = 6,
    seed: Optional[int] = None,
    jitter_pct: float = 0.0,
) -> Tuple[Any, ...]:
    """Every observable of one run, normalized, under ``mode``.

    A failing run snapshots as ``("error", type, normalized message)`` —
    the mutants must fail *identically*, not just both fail.
    """
    fuzzer = ScheduleFuzzer(seed) if seed is not None else None
    try:
        result = run(
            MeanMicrobench(rounds=rounds),
            strategy,
            num_blocks=blocks,
            keep_device=True,
            fuzzer=fuzzer,
            jitter_pct=jitter_pct,
            jitter_seed=3,
            engine_mode=mode,
        )
    except Exception as exc:  # noqa: BLE001 - outcome equality is the test
        return ("error", type(exc).__name__, _norm(str(exc)))
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "device"
    }
    device = result.device
    assert device is not None
    # trace.digest() is deliberately absent: it hashes raw spans, and
    # the two runs' allocation names differ by the instance uid this
    # function normalizes away.  to_tuples() *is* the full trace.
    return _norm(
        (
            "ok",
            fields,
            device.trace.to_tuples(),
            device.engine.now,
            device.engine.events_dispatched,
        )
    )


# ---------------------------------------------------------------------------
# Every strategy, both modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_bit_identical(strategy):
    assert _snapshot(strategy, "reference") == _snapshot(strategy, "fast")


@pytest.mark.parametrize("strategy", MUTANTS)
def test_mutant_outcome_identical(strategy):
    """Seeded bugs fail the same way under both engines.

    The deadlock mutant must name the same blocked processes with the
    same wait reasons; the premature-release mutant must report the same
    violation count; the divergence mutant must starve identically.
    """
    # 30% timing jitter skews block arrivals — the condition the
    # undercount mutant needs to actually open the barrier early (its
    # docstring: "under skewed block timing").
    ref = _snapshot(strategy, "reference", jitter_pct=30.0)
    fast = _snapshot(strategy, "fast", jitter_pct=30.0)
    assert ref == fast
    if strategy == "broken-lockfree-noscatter":
        assert ref[0] == "error" and ref[1] == "DeadlockError"
    if strategy == "broken-simple-undercount":
        # Completes, but the race monitor must have caught the early
        # opens — and both engines must count them identically.
        assert ref[0] == "ok" and ref[1]["violations"] > 0


# ---------------------------------------------------------------------------
# Seeded schedule fuzzing (>= 50 seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", range(50))
def test_fuzzed_schedule_bit_identical(case):
    """Adversarial same-time interleavings stay bit-identical.

    The fuzzer's tiebreak PRNG is consumed once per scheduled event, so
    this also proves the fast engine draws exactly as often, in exactly
    the reference order — one extra or missing draw desynchronizes the
    stream and diverges the schedule immediately.
    """
    seed = derive_seeds(20250807, 50)[case]
    strategy = FUZZED[case % len(FUZZED)]
    ref = _snapshot(strategy, "reference", rounds=3, seed=seed)
    fast = _snapshot(strategy, "fast", rounds=3, seed=seed)
    assert ref == fast


@pytest.mark.parametrize("strategy", MUTANTS)
@pytest.mark.parametrize("seed", [11, 97])
def test_fuzzed_mutant_outcome_identical(strategy, seed):
    ref = _snapshot(strategy, "reference", rounds=3, seed=seed)
    fast = _snapshot(strategy, "fast", rounds=3, seed=seed)
    assert ref == fast


# ---------------------------------------------------------------------------
# Experiment drivers (reduced grids), serialized-bytes equality
# ---------------------------------------------------------------------------

def _driver_json(driver, mode, **kwargs):
    with use_engine_mode(mode):
        return driver(**kwargs).to_json()


def test_fig11_driver_byte_identical():
    kwargs = {"rounds": 10, "blocks": [2, 5, 8]}
    assert _driver_json(experiments.fig11, "reference", **kwargs) == _driver_json(
        experiments.fig11, "fast", **kwargs
    )


@pytest.mark.parametrize("algorithm", ["fft", "bitonic"])
def test_fig13_fig14_driver_byte_identical(algorithm):
    # Figs. 13 and 14 render the same sweep two ways; one sweep
    # comparison covers both drivers.
    kwargs = {"algorithm_name": algorithm, "blocks": [9, 12]}
    assert _driver_json(experiments.fig13, "reference", **kwargs) == _driver_json(
        experiments.fig13, "fast", **kwargs
    )


#: one strategy per barrier family: host, atomic counter, tree, lock-free
#: and the hierarchical cluster barrier (which must also degenerate
#: correctly on flat single-domain presets).  Every preset co-resides 4
#: blocks, and gpu-lockfree needs block_threads >= num_blocks.
PRESET_STRATEGIES = (
    "cpu-implicit",
    "gpu-simple",
    "gpu-tree-2",
    "gpu-lockfree",
    "gpu-cluster-tree",
)


@pytest.mark.parametrize("preset", preset_names())
def test_fig11_driver_byte_identical_on_every_preset(preset):
    """Topology cost paths (interconnect crossings, cooperative
    co-residency, hierarchical arrivals) are engine-invariant."""
    kwargs = {
        "config": get_preset(preset),
        "rounds": 3,
        "blocks": [2, 4],
        "strategies": PRESET_STRATEGIES,
    }
    assert _driver_json(experiments.fig11, "reference", **kwargs) == _driver_json(
        experiments.fig11, "fast", **kwargs
    )


def test_fig15_driver_identical():
    kwargs = {"num_blocks": 6, "algorithms": ("bitonic",)}
    with use_engine_mode("reference"):
        ref = experiments.fig15(**kwargs)
    with use_engine_mode("fast"):
        fast = experiments.fig15(**kwargs)
    assert ref == fast
