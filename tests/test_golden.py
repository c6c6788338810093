"""Cross-commit goldens: fixed answers every refactor must reproduce.

``tests/golden/runs.json`` pins the observables the paper reproduction
rests on, one entry per configuration:

* a run records its :class:`~repro.harness.runner.RunResult` fields
  (minus ``device``), the final virtual clock, the dispatched-event
  count, the summed ``fire_count`` of every global-memory signal and a
  SHA-256 of the full span trace;
* a run that raises records the error class and message instead;
* an experiment driver records its serialized output;
* a kernel-data entry records the SHA-256 of a paper kernel's final
  working array (FFT ``buf``, Smith-Waterman ``H``, bitonic ``keys``),
  so a result that drifts by one ulp shows even where ``verify``'s
  tolerance would pass it; the racy Smith-Waterman entries hash all
  three of its matrices (``H``, ``E`` and ``F``).

Allocation names carry per-instance uids (``g_mutex#3``) that depend on
how many strategies were built before, so every string is normalized
``#<digits>`` -> ``#N`` first.

The entries cover every registered strategy (the shipped barriers and
the ``broken-*`` mutants) on every preset at 4 and at 50 rounds, the
three paper kernels on every strategy, fifty fuzzed schedules, the
fuzzed mutants, and the Fig. 11/13/15 drivers (Figs. 13 and 14 render
one sweep).

The file changes only through ``pytest tests/test_golden.py
--update-golden``; a change that moves a digest must say why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np
import pytest

from repro.algorithms import FFT, BitonicSort, MeanMicrobench, SmithWaterman
from repro.gpu.presets import get_preset, preset_names
from repro.harness import experiments
from repro.harness.runner import run
from repro.sanitize import ScheduleFuzzer, derive_seeds
from repro.sync import strategy_names

GOLDEN = Path(__file__).parent / "golden" / "runs.json"

_UID = re.compile(r"#\d+")

#: the seeded-bug fixtures (repro.sanitize.mutants).
MUTANTS = [name for name in strategy_names() if name.startswith("broken-")]

#: device barriers whose outcome depends on same-time event order.
FUZZED = ["gpu-simple", "gpu-simple-reset", "gpu-tree-2", "gpu-lockfree",
          "gpu-lockfree-detailed"]

#: one strategy per barrier family for the per-preset Fig. 11 sweeps.
PRESET_STRATEGIES = ("cpu-implicit", "gpu-simple", "gpu-tree-2",
                     "gpu-lockfree", "gpu-cluster-tree")

KERNELS = {
    "fft": lambda: FFT(n=2**10),
    "swat": lambda: SmithWaterman(32, 32),
    "bitonic": lambda: BitonicSort(n=2**10),
}

#: kernel -> (seeded factory, name of its final working array).
KERNEL_DATA = {
    "fft": (lambda: FFT(n=2**10, seed=3), "buf"),
    "swat": (lambda: SmithWaterman(32, 32, seed=3), "H"),
    "bitonic": (lambda: BitonicSort(n=2**10, seed=3), "keys"),
}

#: strategies and grid sizes the kernel-data entries pin.
DATA_STRATEGIES = ("null", "cpu-implicit", "gpu-lockfree", "gpu-simple")
DATA_BLOCKS = (1, 7, 30)

#: racy Smith-Waterman runs whose H, E and F are pinned: name ->
#: (strategy, jitter_pct, fuzzer seed).  Blocks run rounds out of step
#: here, so a wrong order of round work shows in the stale cells read.
RACY_SWAT = {
    "null-jitter30": ("null", 30.0, None),
    "null-fuzz11": ("null", 0.0, 11),
    "broken-simple-skipround": ("broken-simple-skipround", 0.0, None),
    "null-jitter30-fuzz11": ("null", 30.0, 11),
    "broken-simple-undercount-jitter30-fuzz11": (
        "broken-simple-undercount", 30.0, 11),
    "broken-simple-undercount-jitter60-fuzz11": (
        "broken-simple-undercount", 60.0, 11),
}


def _norm(obj: Any) -> Any:
    """JSON-ready copy of ``obj`` with instance uids normalized to ``#N``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, str):
        return _UID.sub("#N", obj)
    if isinstance(obj, (list, tuple)):
        return [_norm(o) for o in obj]
    if isinstance(obj, dict):
        return {_norm(k): _norm(v) for k, v in obj.items()}
    return obj


def _sha256(obj: Any) -> str:
    text = json.dumps(obj, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_record(
    algorithm: Any,
    strategy: str,
    blocks: int,
    *,
    preset: str = "gtx280",
    seed: Optional[int] = None,
    jitter_pct: float = 0.0,
) -> Dict[str, Any]:
    fuzzer = ScheduleFuzzer(seed) if seed is not None else None
    try:
        result = run(
            algorithm,
            strategy,
            num_blocks=blocks,
            config=get_preset(preset),
            keep_device=True,
            fuzzer=fuzzer,
            jitter_pct=jitter_pct,
            jitter_seed=3,
        )
    except Exception as exc:  # noqa: BLE001 - the failure is the answer
        return {"error": type(exc).__name__, "message": _norm(str(exc))}
    device = result.device
    return {
        "result": _norm({
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name != "device"
        }),
        "now": device.engine.now,
        "events_dispatched": device.engine.events_dispatched,
        "signal_fires": sum(array.signal.fire_count for array in device.memory),
        "trace_sha256": _sha256(_norm(device.trace.to_tuples())),
    }


def _data_record(kernel: str, strategy: str, blocks: int) -> Dict[str, Any]:
    make, attr = KERNEL_DATA[kernel]
    algorithm = make()
    run(algorithm, strategy, num_blocks=blocks)
    array = np.ascontiguousarray(getattr(algorithm, attr))
    return {"dtype": str(array.dtype), "shape": list(array.shape),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest()}


def _racy_swat_record(
    strategy: str, blocks: int, jitter_pct: float, seed: Optional[int]
) -> Dict[str, Any]:
    """H, E and F of a non-square SW fill (and the error, if it raises)."""
    algorithm = SmithWaterman(48, 20, seed=3)
    fuzzer = ScheduleFuzzer(seed) if seed is not None else None
    record: Dict[str, Any] = {}
    try:
        run(algorithm, strategy, num_blocks=blocks, fuzzer=fuzzer,
            jitter_pct=jitter_pct, jitter_seed=3)
    except Exception as exc:  # noqa: BLE001 - the failure is part of the answer
        record["error"] = {"class": type(exc).__name__, "message": _norm(str(exc))}
    for attr in ("H", "E", "F"):
        array = np.ascontiguousarray(getattr(algorithm, attr))
        record[attr] = hashlib.sha256(array.tobytes()).hexdigest()
    return record


def _sweep_record(sweep: Any) -> Dict[str, Any]:
    text = sweep.to_json()
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "json": json.loads(text)}


def _cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    cases: Dict[str, Callable[[], Dict[str, Any]]] = {}
    for preset in preset_names():
        for strategy in strategy_names():
            cases[f"micro/{preset}/{strategy}"] = (
                lambda s=strategy, p=preset: _run_record(
                    MeanMicrobench(rounds=4), s, 4, preset=p
                )
            )
    # 50 rounds: long enough for a steady-state fast-forward to splice
    # periods into every strategy that reaches one.
    for preset in preset_names():
        for strategy in strategy_names():
            cases[f"micro50/{preset}/{strategy}"] = (
                lambda s=strategy, p=preset: _run_record(
                    MeanMicrobench(rounds=50), s, 4, preset=p
                )
            )
    # 30 % jitter skews block arrivals: the condition under which the
    # undercount mutant actually opens the barrier early.
    for strategy in MUTANTS:
        cases[f"micro-jitter/{strategy}"] = lambda s=strategy: _run_record(
            MeanMicrobench(rounds=4), s, 6, jitter_pct=30.0
        )
    for kernel, make in KERNELS.items():
        for strategy in strategy_names():
            cases[f"kernel/{kernel}/{strategy}"] = (
                lambda s=strategy, m=make: _run_record(m(), s, 6)
            )
    for kernel in KERNEL_DATA:
        for strategy in DATA_STRATEGIES:
            for blocks in DATA_BLOCKS:
                cases[f"kernel-data/{kernel}/{strategy}/{blocks}"] = (
                    lambda k=kernel, s=strategy, b=blocks: _data_record(k, s, b)
                )
    for name, (strategy, jitter_pct, seed) in RACY_SWAT.items():
        for blocks in (7, 30):
            cases[f"kernel-data/swat-48x20/{name}/{blocks}"] = (
                lambda s=strategy, b=blocks, j=jitter_pct, sd=seed:
                _racy_swat_record(s, b, j, sd)
            )
    for case, seed in enumerate(derive_seeds(20250807, 50)):
        strategy = FUZZED[case % len(FUZZED)]
        cases[f"fuzz/{case:02d}/{strategy}"] = (
            lambda s=strategy, sd=seed: _run_record(
                MeanMicrobench(rounds=3), s, 6, seed=sd
            )
        )
    for strategy in MUTANTS:
        for seed in (11, 97):
            cases[f"fuzz-mutant/{strategy}/{seed}"] = (
                lambda s=strategy, sd=seed: _run_record(
                    MeanMicrobench(rounds=3), s, 6, seed=sd
                )
            )
    cases["driver/fig11"] = lambda: _sweep_record(
        experiments.fig11(rounds=10, blocks=[2, 5, 8])
    )
    cases["driver/fig11-50"] = lambda: _sweep_record(
        experiments.fig11(rounds=50, blocks=[2, 5, 8])
    )
    for preset in preset_names():
        cases[f"driver/fig11/{preset}"] = lambda p=preset: _sweep_record(
            experiments.fig11(config=get_preset(p), rounds=3, blocks=[2, 4],
                              strategies=PRESET_STRATEGIES)
        )
    for kernel in ("fft", "bitonic"):
        cases[f"driver/fig13/{kernel}"] = lambda k=kernel: _sweep_record(
            experiments.fig13(k, blocks=[9, 12])
        )
    cases["driver/fig15/bitonic"] = lambda: _norm(
        experiments.fig15(num_blocks=6, algorithms=("bitonic",))
    )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden(request):
    """The pinned entries; with ``--update-golden``, a dict to refill."""
    update = request.config.getoption("--update-golden")
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if not update:
        yield pinned
        return
    fresh: Dict[str, Any] = {}
    yield fresh
    merged = {k: v for k, v in pinned.items() if k in CASES}
    merged.update(fresh)
    GOLDEN.write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, golden, request):
    record = json.loads(json.dumps(CASES[case]()))
    if request.config.getoption("--update-golden"):
        golden[case] = record
        return
    assert case in golden, f"no golden entry for {case}; run --update-golden"
    assert record == golden[case]


def test_golden_has_no_stale_entries(golden, request):
    if request.config.getoption("--update-golden"):
        pytest.skip("rewriting the goldens")
    assert sorted(golden) == sorted(CASES)
