"""Steady-state fast-forward: a spliced run equals the full simulation.

The reference side of every comparison is :class:`FullMicro`, a
micro-benchmark that does not opt in, so it is always simulated round
by round.  Whether a run was fast-forwarded shows only in the runner's
DEBUG record (``RunResult`` has no field for it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import re
from typing import Any, Dict

import pytest

from repro.algorithms import FFT, MeanMicrobench
from repro.faults import FaultPlan
from repro.gpu.presets import get_preset, preset_names
from repro.harness.fastforward import WINDOW
from repro.harness.runner import run
from repro.sanitize import SanitizerProbe, ScheduleFuzzer
from repro.sync import strategy_names

LOGGER = "repro.harness.runner"

#: the seven Fig. 11 strategies: each must fast-forward from R = 6 on.
STEADY = ("null", "cpu-explicit", "cpu-implicit", "gpu-simple", "gpu-tree-2",
          "gpu-tree-3", "gpu-lockfree")

BLOCKS = (1, 2, 7, 30)
ROUNDS = (1, 2, 3, 4, 5, 6, 50)
#: long runs ``(blocks, rounds)`` on gtx280: a full simulation costs
#: seconds per cell here, so they cover the Fig. 11 strategies only.
LONG_CELLS = ((30, 200), (2, 1000))

_UID = re.compile(r"#\d+")


class FullMicro(MeanMicrobench):
    """The micro-benchmark, never fast-forwarded."""

    skip_rounds = None


def _norm(obj: Any) -> Any:
    if isinstance(obj, str):
        return _UID.sub("#N", obj)
    if isinstance(obj, (list, tuple)):
        return [_norm(o) for o in obj]
    if isinstance(obj, dict):
        return {_norm(k): _norm(v) for k, v in obj.items()}
    return obj


def _observe(algorithm, strategy: str, blocks: int, preset: str) -> Dict[str, Any]:
    """Everything a fast-forwarded run must reproduce, or the error raised."""
    try:
        result = run(algorithm, strategy, blocks, config=get_preset(preset),
                     keep_device=True)
    except Exception as exc:  # noqa: BLE001 - the failure is the answer
        return {"error": type(exc).__name__, "message": _norm(str(exc))}
    device = result.device
    trace = json.dumps(_norm(device.trace.to_tuples()), default=str)
    return {
        "result": _norm({f.name: getattr(result, f.name)
                         for f in dataclasses.fields(result) if f.name != "device"}),
        "now": device.engine.now,
        "events_dispatched": device.engine.events_dispatched,
        "signal_fires": sum(array.signal.fire_count for array in device.memory),
        "memory": {_norm(a.name): a.data.tolist() for a in device.memory},
        "trace_sha256": hashlib.sha256(trace.encode("utf-8")).hexdigest(),
    }


def _outcomes(caplog) -> list:
    return [r.getMessage() for r in caplog.records if r.name == LOGGER]


def _check_cell(caplog, preset: str, strategy: str, blocks: int, rounds: int) -> None:
    caplog.clear()
    fast = _observe(MeanMicrobench(rounds=rounds, num_blocks_hint=blocks),
                    strategy, blocks, preset)
    records = _outcomes(caplog)
    full = _observe(FullMicro(rounds=rounds, num_blocks_hint=blocks),
                    strategy, blocks, preset)
    cell = f"{preset}/{strategy} N={blocks} R={rounds}"
    if fast != full:
        pytest.fail(f"{cell}: spliced run differs from the full simulation")
    if not records:  # the preset rejected the grid before anything ran
        assert fast.get("error") == "OccupancyError", (cell, fast)
        return
    assert len(records) == 1, (cell, records)
    engaged = records[0].startswith("fast-forward engaged")
    if rounds <= WINDOW:
        assert not engaged, cell
    elif strategy in STEADY:
        assert engaged, (cell, records)


@pytest.mark.parametrize("strategy", strategy_names())
@pytest.mark.parametrize("preset", preset_names())
def test_fast_forward_matches_full_simulation(preset, strategy, caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    for blocks in BLOCKS:
        for rounds in ROUNDS:
            _check_cell(caplog, preset, strategy, blocks, rounds)


@pytest.mark.parametrize("strategy", STEADY)
def test_long_fig11_cells_match_full_simulation(strategy, caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    for blocks, rounds in LONG_CELLS:
        _check_cell(caplog, "gtx280", strategy, blocks, rounds)


def test_engaged_record_names_window_period_spans_and_skipped_rounds(caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    run(MeanMicrobench(rounds=200), "gpu-lockfree", 30)
    assert _outcomes(caplog) == [
        "fast-forward engaged for micro on gpu-lockfree (30 blocks, 200 rounds): "
        "window 5, period 2100 ns, 152 spans per period, 195 rounds skipped"
    ]


def test_declined_record_names_the_reason_and_the_run_is_full(caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    # The sense-reversal barrier alternates its flag: its period is two
    # rounds, so consecutive rounds never match.
    fast = run(MeanMicrobench(rounds=20), "gpu-sense-reversal", 2)
    (record,) = _outcomes(caplog)
    assert record.startswith(
        "fast-forward declined for micro on gpu-sense-reversal (2 blocks, 20 rounds): "
    )
    assert "differ" in record
    full = run(FullMicro(rounds=20), "gpu-sense-reversal", 2)
    assert fast == full


def test_record_is_guarded_by_the_log_level(caplog):
    caplog.set_level(logging.INFO, logger=LOGGER)
    run(MeanMicrobench(rounds=20), "gpu-simple", 4)
    assert _outcomes(caplog) == []


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        ({"jitter_pct": 5.0}, "jitter on"),
        ({"fuzzer": ScheduleFuzzer(7)}, "fuzzer on"),
        ({"probe": SanitizerProbe(), "verify": False}, "probe on"),
        ({"faults": FaultPlan([])}, "faults on"),
    ],
    ids=["jitter", "fuzzer", "probe", "faults"],
)
def test_never_engages_with_perturbing_or_armed_inputs(kwargs, reason, caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    run(MeanMicrobench(rounds=20), "gpu-lockfree", 6, **kwargs)
    (record,) = _outcomes(caplog)
    assert record.endswith(f"(6 blocks, 20 rounds): {reason}")


def test_never_engages_after_a_race_violation_in_the_prefix(caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    config = get_preset("dual_gpu")
    fast = run(MeanMicrobench(rounds=20), "broken-simple-undercount", 7,
               config=config, verify=False)
    assert _outcomes(caplog)[0].endswith("race violation in the prefix")
    full = run(FullMicro(rounds=20), "broken-simple-undercount", 7,
               config=config, verify=False)
    assert fast == full and fast.violations > 0


@pytest.mark.parametrize("algorithm", [FFT(n=2**8), FullMicro(rounds=20)],
                         ids=["fft", "micro-not-opted-in"])
def test_algorithms_that_do_not_opt_in_emit_no_record(algorithm, caplog):
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    run(algorithm, "gpu-lockfree", 4)
    assert _outcomes(caplog) == []
