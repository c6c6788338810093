"""Tests for the engine-throughput measure/compare path."""

import pytest

from repro.errors import ExperimentError
from repro.harness.perf import (
    compare,
    load_bench,
    measure,
    micro_cell,
    render_bench,
    workload_pingpong,
)
from repro.simcore import Delay, make_engine


def test_compare_reports_both_modes_and_the_speedup():
    result = compare(workload_pingpong(500), repeats=1)
    ref, fast = result["reference"], result["fast"]
    assert ref["events"] == fast["events"] == 501
    assert ref["now_ns"] == fast["now_ns"] == 5000
    assert "speedup" in result
    payload = load_bench(render_bench("engine", {"pingpong": result}))
    assert payload["workloads"]["pingpong"]["fast"]["events"] == 501


def test_micro_cell_runs_the_device_stack_under_each_mode():
    result = compare(micro_cell("gpu-lockfree", 2, 2), repeats=1)
    assert result["reference"]["events"] > 0
    assert result["reference"]["now_ns"] == result["fast"]["now_ns"]


def test_compare_refuses_engines_that_did_different_work():
    def lopsided(mode):
        engine = make_engine(mode)

        def proc():
            yield Delay(10 if mode == "reference" else 20)

        engine.spawn(proc())
        engine.run()
        return engine

    with pytest.raises(ExperimentError, match="diverged"):
        compare(lopsided, repeats=1)


def test_measure_rejects_bad_repeats_and_empty_runs():
    with pytest.raises(ExperimentError, match="repeats"):
        measure(workload_pingpong(10), "fast", repeats=0)
    with pytest.raises(ExperimentError, match="no events"):
        measure(make_engine, "reference", repeats=1)
