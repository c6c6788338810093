"""Parallel chaos/sanitize campaigns must match their serial runs."""

import pytest

from repro.faults.chaos import ChaosReport, chaos_campaign
from repro.parallel import Executor, ResultCache
from repro.sanitize.report import SanitizeReport
from repro.sanitize.sanitizer import SkewedMicrobench, sanitize_run
from repro.sync.base import get_strategy


def test_chaos_campaign_sharded_matches_serial():
    kwargs = dict(plans=5, num_blocks=4, seed=123)
    serial = chaos_campaign("gpu-lockfree", **kwargs)
    parallel = chaos_campaign(
        "gpu-lockfree", executor=Executor(jobs=2), **kwargs
    )
    assert parallel.to_json() == serial.to_json()
    assert parallel.clean == serial.clean
    assert [r.outcome for r in parallel.records] == [
        r.outcome for r in serial.records
    ]


def test_chaos_report_roundtrip():
    report = chaos_campaign("gpu-simple", plans=3, num_blocks=4)
    again = ChaosReport.from_json(report.to_json())
    assert again.to_json() == report.to_json()
    assert again.render() == report.render()


def test_sanitize_sharded_matches_serial():
    kwargs = dict(strategy="gpu-lockfree", num_blocks=4, schedules=6, seed=99)
    serial = sanitize_run(**kwargs)
    parallel = sanitize_run(executor=Executor(jobs=2), **kwargs)
    assert parallel.to_json() == serial.to_json()
    assert parallel.schedules_run == serial.schedules_run
    assert parallel.schedules_flagged == serial.schedules_flagged
    assert parallel.barrier_events == serial.barrier_events


def test_sanitize_cached_rerun_matches(tmp_path):
    kwargs = dict(strategy="gpu-tree-2", num_blocks=4, schedules=4)
    serial = sanitize_run(**kwargs)
    cache = ResultCache(tmp_path / "cache")
    first = sanitize_run(executor=Executor(jobs=1, cache=cache), **kwargs)
    second = sanitize_run(executor=Executor(jobs=1, cache=cache), **kwargs)
    assert cache.hits == 4  # the whole second campaign came from disk
    assert first.to_json() == serial.to_json()
    assert second.to_json() == serial.to_json()


def test_sanitize_report_roundtrip():
    report = sanitize_run(strategy="gpu-lockfree", num_blocks=4, schedules=3)
    again = SanitizeReport.from_json(report.to_json())
    assert again.to_json() == report.to_json()
    assert again.render() == report.render()


@pytest.mark.parametrize(
    "strategy",
    [
        "gpu-lockfree",
        "broken-lockfree-noscatter",
        "broken-simple-skipround",
        "broken-simple-undercount",
    ],
)
def test_sanitize_sources_give_one_report(strategy):
    """The executor source (default workload, strategy name) and the
    in-process source (instances) merge into the same report."""
    from_executor = sanitize_run(strategy=strategy, num_blocks=8, schedules=5)
    from_instances = sanitize_run(
        SkewedMicrobench(rounds=4, num_blocks_hint=8, threads_per_block=64),
        get_strategy(strategy),
        8,
        schedules=5,
    )
    assert from_instances.to_json() == from_executor.to_json()
    assert from_instances.render() == from_executor.render()
