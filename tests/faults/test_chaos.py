"""Tests for the chaos campaign and its sanitizer cross-check."""

import pytest

from repro.errors import ConfigError
from repro.faults import chaos_campaign
from repro.faults.chaos import ROUNDS, ChaosReport, ChaosRunRecord


def test_small_campaign_is_clean_and_deterministic():
    a = chaos_campaign("gpu-lockfree", plans=8, seed=7)
    b = chaos_campaign("gpu-lockfree", plans=8, seed=7)
    assert a.clean, a.render()
    assert len(a.records) == 8
    assert [(r.seed, r.outcome, r.attempts) for r in a.records] == [
        (r.seed, r.outcome, r.attempts) for r in b.records
    ]


def test_campaign_outcomes_partition_the_runs():
    rep = chaos_campaign("gpu-simple", plans=10, seed=3)
    total = sum(
        rep.count(o) for o in ("ok", "recovered", "degraded", "failed")
    )
    assert total == len(rep.records) == 10


def test_hang_only_campaign_always_degrades_device_barrier():
    from repro.faults.plan import FaultPlan

    rep = chaos_campaign("gpu-lockfree", plans=6, seed=11)
    hang_records = [r for r in rep.records if "hang" in r.fired]
    assert hang_records
    for rec in hang_records:
        assert rec.outcome == "degraded", rec
        plan = FaultPlan.generate(rec.seed, 8, ROUNDS)
        assert plan.descriptions == rec.planned  # seed replays the plan


def test_host_strategy_campaign_never_degrades():
    rep = chaos_campaign("cpu-implicit", plans=10, seed=5)
    assert rep.clean, rep.render()
    assert rep.count("degraded") == 0


def test_unknown_strategy_is_unexplained_not_crash():
    rep = chaos_campaign("no-such-barrier", plans=2, seed=1)
    assert not rep.clean
    assert all(not r.explained for r in rep.records)


@pytest.mark.parametrize("plans", [-3, 2.5, True, "4"])
def test_bad_plan_count_is_a_config_error_naming_plans(plans):
    with pytest.raises(ConfigError, match="^plans must be an int >= 0"):
        chaos_campaign("gpu-lockfree", plans=plans)


def test_zero_plans_is_an_empty_clean_campaign():
    rep = chaos_campaign("gpu-lockfree", plans=0)
    assert rep.records == [] and rep.clean


def test_render_mentions_verdict_and_counts():
    rep = chaos_campaign("gpu-lockfree", plans=4, seed=2)
    text = rep.render()
    assert "chaos campaign: gpu-lockfree" in text
    assert "verdict" in text
    assert "CLEAN" in text


def test_report_flags_unverified_result_records():
    rep = ChaosReport(
        strategy="s", algorithm="a", num_blocks=8, seed=0, plans=1
    )
    rep.records.append(
        ChaosRunRecord(
            seed=1,
            planned=["x"],
            outcome="ok",
            attempts=1,
            fired=[],
            explained=False,
            error="run returned unverified",
        )
    )
    assert not rep.clean
    assert "UNEXPLAINED" in rep.render()


@pytest.mark.parametrize("strategy", ["gpu-lockfree", "gpu-simple"])
def test_campaign_past_co_residency_is_reported_not_raised(strategy):
    # 31 blocks exceed the paper card's 30-block limit: the cross-check
    # replay (no recovery) is refused at launch with OccupancyError.
    # That refusal fires no fault, so it must be consistent rather than
    # escape the campaign.
    rep = chaos_campaign(strategy, plans=5, num_blocks=31)
    assert len(rep.records) == 5
    assert rep.clean, rep.render()
    assert rep.count("degraded") > 0
