"""Tests for the deterministic fan-out executor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ExecutorError
from repro.harness.experiments import GPU_STRATEGIES
from repro.parallel import Executor, ResultCache


def micro_payload(strategy, num_blocks=4, jitter_seed=0):
    return {
        "algorithm": {
            "name": "micro",
            "rounds": 2,
            "num_blocks_hint": num_blocks,
        },
        "strategy": strategy,
        "num_blocks": num_blocks,
        "jitter_pct": 10.0,
        "jitter_seed": jitter_seed,
    }


def test_unknown_worker_is_typed():
    with pytest.raises(ExecutorError, match="unknown worker") as info:
        Executor().map("no-such-worker", [{}])
    assert info.value.kind == "unknown-worker"


def test_constructor_validation():
    with pytest.raises(ConfigError):
        Executor(jobs=0)


def test_empty_batch():
    assert Executor().map("run-total", []) == []


def test_inline_results_are_totals():
    totals = Executor(jobs=1).map(
        "run-total", [micro_payload("gpu-lockfree"), micro_payload("null")]
    )
    assert len(totals) == 2
    assert all(isinstance(t, int) and t > 0 for t in totals)
    # a synchronized run costs more than its compute-only baseline
    assert totals[0] > totals[1]


@settings(max_examples=5, deadline=None)
@given(
    strategy=st.sampled_from(GPU_STRATEGIES),
    jitter_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_parallel_equals_serial(strategy, jitter_seed):
    """The tentpole property: jobs=2 is bit-identical to jobs=1."""
    payloads = [
        micro_payload(strategy, num_blocks=n, jitter_seed=jitter_seed)
        for n in (2, 3, 4)
    ]
    serial = Executor(jobs=1).map("run-total", payloads)
    parallel = Executor(jobs=2).map("run-total", payloads)
    assert serial == parallel


def test_results_in_submission_order():
    # staggered sleeps finish out of order; results must not.
    payloads = [
        {"seconds": s, "value": i}
        for i, s in enumerate([0.2, 0.0, 0.1, 0.0])
    ]
    assert Executor(jobs=2).map("sleep", payloads) == [0, 1, 2, 3]


def test_worker_failure_is_typed_inline_and_pooled():
    bad = [{"algorithm": {"name": "no-such-algo"}, "strategy": "null",
            "num_blocks": 2}]
    for jobs in (1, 2):
        with pytest.raises(ExecutorError, match="no-such-algo") as info:
            Executor(jobs=jobs).map("run-total", bad)
        assert info.value.kind == "worker"


def test_progress_callback_sees_every_task(tmp_path):
    calls = []
    cache = ResultCache(tmp_path / "cache")
    ex = Executor(jobs=1, cache=cache, progress=lambda d, t, c: calls.append((d, t, c)))
    payloads = [micro_payload("gpu-simple", num_blocks=n) for n in (2, 3)]
    ex.map("run-total", payloads)
    assert calls == [(1, 2, False), (2, 2, False)]
    calls.clear()
    ex.map("run-total", payloads)  # second pass: all cached
    assert calls == [(1, 2, True), (2, 2, True)]


def test_task_counters(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    ex = Executor(jobs=1, cache=cache)
    payloads = [micro_payload("gpu-tree-2", num_blocks=n) for n in (2, 3, 4)]
    ex.map("run-total", payloads)
    ex.map("run-total", payloads)
    assert ex.tasks_run == 3
    assert ex.tasks_cached == 3
