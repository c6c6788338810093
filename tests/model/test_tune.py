"""Topology-resolved cost predictions and the ``repro tune`` layer."""

import dataclasses
import json

import pytest

from repro.algorithms import MeanMicrobench, Reduction
from repro.errors import ConfigError, OccupancyError
from repro.gpu.presets import get_preset, preset_names
from repro.gpu.topology import Topology
from repro.harness import run
from repro.model.barrier_costs import (
    barrier_cost,
    lockfree_cost,
    simple_cost,
    tree_cost,
)
from repro.model.tune import MODELED_STRATEGIES, predict_all, tune_workload
from repro.sync import get_strategy

# ---------------------------------------------------------------------------
# Topology surcharges on the barrier cost models
# ---------------------------------------------------------------------------


def test_single_device_topology_is_the_paper_identity():
    flat = Topology()
    for n in (1, 2, 8, 30):
        assert simple_cost(n, topology=flat) == simple_cost(n)
        assert tree_cost(n, 2, topology=flat) == tree_cost(n, 2)
        assert lockfree_cost(n, topology=flat) == lockfree_cost(n)


def test_simple_cost_charges_every_remote_arrival():
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    n = 8  # blocks 4..7 land on domain 1
    base = simple_cost(n)
    # 4 remote atomics + 1 remote release observation on the critical path.
    assert simple_cost(n, topology=topo) == base + 4 * 1_500 + 1_500


def test_lockfree_cost_charges_exactly_two_crossings():
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    base = lockfree_cost(8)
    assert lockfree_cost(8, topology=topo) == base + 2 * 1_500
    # Independent of how many blocks are remote.
    assert lockfree_cost(30, topology=topo) == lockfree_cost(30) + 2 * 1_500


def test_tree_cost_charges_one_crossing_per_remote_domain():
    topo = Topology(kind="cluster", num_domains=4, crossing_ns=250)
    n = 8  # all 4 domains occupied
    base = tree_cost(n, 2)
    assert tree_cost(n, 2, topology=topo) == base + 3 * 250 + 250


def test_grid_confined_to_one_domain_pays_nothing():
    # domain_of partitions contiguously: a 1-block grid sits in domain 0.
    topo = Topology(kind="multi-device", num_domains=2, crossing_ns=1_500)
    assert simple_cost(1, topology=topo) == simple_cost(1)
    assert lockfree_cost(1, topology=topo) == lockfree_cost(1)
    assert tree_cost(1, 2, topology=topo) == tree_cost(1, 2)


# ---------------------------------------------------------------------------
# The model's pick under a device config
# ---------------------------------------------------------------------------


def _recommended(rounds, compute_ns, num_blocks, preset):
    report = tune_workload(rounds, compute_ns, num_blocks, "gpu-simple", preset)
    return report.recommended


def test_advisor_reproduces_fig11_ordering_on_gtx280():
    """Paper Fig. 11: lock-free beats simple at high block counts."""
    cfg = get_preset("gtx280")
    preds = predict_all(100, 5_000, 30, config=cfg)
    assert preds["gpu-lockfree"] < preds["gpu-simple"]
    assert _recommended(100, 5_000, 30, "gtx280") == "gpu-lockfree"


def test_advisor_prefers_simple_at_tiny_grids_on_gtx280():
    assert _recommended(100, 5_000, 4, "gtx280") == "gpu-simple"


@pytest.mark.parametrize("preset", ["dual_gpu", "riscv_cluster_1024"])
def test_recommendation_flips_on_multi_domain_presets(preset):
    """The same 4-block workload that favours gpu-simple on the paper's
    card flips to gpu-lockfree once arrivals cross an interconnect."""
    assert _recommended(100, 5_000, 4, preset) == "gpu-lockfree"


def test_explicit_timings_win_over_config():
    gtx = get_preset("gtx280")
    dual = get_preset("dual_gpu")
    what_if = dataclasses.replace(dual, timings=gtx.timings)
    preds = predict_all(10, 1_000, 8, config=what_if)
    # Timings from gtx280, topology from dual_gpu: lockfree pays exactly
    # the two crossings over its flat-gtx280 prediction.
    flat = predict_all(10, 1_000, 8)
    assert preds["gpu-lockfree"] == flat["gpu-lockfree"] + 10 * 2 * 1_500


#: ``tune_workload(100, 5_000, N, "gpu-simple", preset).predictions`` for
#: N in {4, 30} clamped to each preset's co-residency limit.  Any change
#: to these numbers is a change to the cost model and must say why.
PINNED_PREDICTIONS = {
    ("dual_gpu", 4): {
        "cpu-explicit": 1750000.0, "cpu-implicit": 1106500.0,
        "gpu-lockfree": 972500.0, "gpu-simple": 1093500.0,
        "gpu-tree-2": 1027500.0, "gpu-tree-3": 1103500.0,
    },
    ("dual_gpu", 30): {
        "cpu-explicit": 1750000.0, "cpu-implicit": 1106500.0,
        "gpu-lockfree": 972500.0, "gpu-simple": 3667500.0,
        "gpu-tree-2": 1195500.0, "gpu-tree-3": 1223500.0,
    },
    ("fermi_class", 4): {
        "cpu-explicit": 1350000.0, "cpu-implicit": 904500.0,
        "gpu-lockfree": 622500.0, "gpu-simple": 564500.0,
        "gpu-tree-2": 626500.0, "gpu-tree-3": 672500.0,
    },
    ("fermi_class", 15): {
        "cpu-explicit": 1350000.0, "cpu-implicit": 904500.0,
        "gpu-lockfree": 622500.0, "gpu-simple": 652500.0,
        "gpu-tree-2": 658500.0, "gpu-tree-3": 704500.0,
    },
    ("grid_sync", 4): {
        "cpu-explicit": 1100000.0, "cpu-implicit": 803000.0,
        "gpu-lockfree": 573000.0, "gpu-simple": 536000.0,
        "gpu-tree-2": 576000.0, "gpu-tree-3": 604000.0,
    },
    ("grid_sync", 30): {
        "cpu-explicit": 1100000.0, "cpu-implicit": 803000.0,
        "gpu-lockfree": 573000.0, "gpu-simple": 640000.0,
        "gpu-tree-2": 604000.0, "gpu-tree-3": 624000.0,
    },
    ("gtx280", 4): {
        "cpu-explicit": 1750000.0, "cpu-implicit": 1106500.0,
        "gpu-lockfree": 672500.0, "gpu-simple": 643500.0,
        "gpu-tree-2": 727500.0, "gpu-tree-3": 803500.0,
    },
    ("gtx280", 30): {
        "cpu-explicit": 1750000.0, "cpu-implicit": 1106500.0,
        "gpu-lockfree": 672500.0, "gpu-simple": 1267500.0,
        "gpu-tree-2": 895500.0, "gpu-tree-3": 923500.0,
    },
    ("riscv_cluster_1024", 4): {
        "cpu-explicit": 900000.0, "cpu-implicit": 702000.0,
        "gpu-lockfree": 596000.0, "gpu-simple": 627000.0,
        "gpu-tree-2": 654000.0, "gpu-tree-3": 673000.0,
    },
    ("riscv_cluster_1024", 30): {
        "cpu-explicit": 900000.0, "cpu-implicit": 702000.0,
        "gpu-lockfree": 596000.0, "gpu-simple": 1356000.0,
        "gpu-tree-2": 982000.0, "gpu-tree-3": 993000.0,
    },
}


def test_predictions_pinned_for_every_preset():
    got = {}
    for preset in preset_names():
        cfg = get_preset(preset)
        limit = cfg.topology.max_co_resident_blocks(cfg)
        for n in (4, 30):
            report = tune_workload(100, 5_000, min(n, limit), "gpu-simple", preset)
            got[(preset, min(n, limit))] = report.predictions
    assert got == PINNED_PREDICTIONS


# ---------------------------------------------------------------------------
# The model's pick over an algorithm's per-round profile, against runs
# ---------------------------------------------------------------------------


def _model_pick(algorithm, num_blocks):
    """(strategy, predicted total ns) the model picks for ``algorithm``.

    Per-round compute is the slowest block's cost: the barrier releases
    only when the last block arrives.
    """
    profile = [
        max(algorithm.round_cost(r, b, num_blocks) for b in range(num_blocks))
        for r in range(algorithm.num_rounds())
    ]
    predictions = predict_all(algorithm.num_rounds(), profile, num_blocks)
    best = min(predictions, key=predictions.get)
    return best, predictions[best]


def test_model_picks_lockfree_for_sync_bound_reduction():
    algo = Reduction(n=4096, num_blocks_hint=30)
    assert _model_pick(algo, 30)[0] == "gpu-lockfree"


def test_model_picks_simple_for_tiny_grid():
    micro = MeanMicrobench(rounds=50, num_blocks_hint=2)
    assert _model_pick(micro, 2)[0] == "gpu-simple"


def test_model_prediction_close_to_measurement():
    """The model's prediction for the winner must track a real run."""
    micro = MeanMicrobench(rounds=60, num_blocks_hint=16)
    strategy, predicted = _model_pick(micro, 16)
    measured = run(micro, strategy, 16).total_ns
    assert measured == pytest.approx(predicted, rel=0.05)


def test_model_pick_is_actually_fastest():
    """End-to-end: run every modeled strategy; the model's pick wins."""
    micro = MeanMicrobench(rounds=40, num_blocks_hint=24)
    totals = {name: run(micro, name, 24).total_ns for name in MODELED_STRATEGIES}
    assert min(totals, key=totals.get) == _model_pick(micro, 24)[0]


# ---------------------------------------------------------------------------
# tune_workload
# ---------------------------------------------------------------------------


def test_tune_optimal_configuration_has_no_advisory():
    report = tune_workload(100, 5_000, 30, "gpu-lockfree", "gtx280")
    assert report.optimal
    assert report.advisory is None
    assert report.predicted_speedup == 1.0
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 0
    assert "matches the cost-model recommendation" in report.render()


def test_tune_suboptimal_configuration_emits_sc100():
    report = tune_workload(100, 5_000, 30, "gpu-simple", "gtx280")
    assert not report.optimal
    assert report.recommended == "gpu-lockfree"
    advisory = report.advisory
    assert advisory is not None
    assert advisory.code == "SC100"
    assert advisory.severity == "advice"
    assert advisory.file == "<workload:gtx280>"
    assert advisory.unit == "gpu-simple"
    assert "gpu-lockfree" in advisory.message
    assert report.predicted_speedup > 1.5
    # Advisory severity: exit 0 unless strict.
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


def test_tune_recommendation_changes_with_preset():
    """ISSUE acceptance: the same workload tunes differently on the
    multi-domain presets."""
    on_gtx = tune_workload(100, 5_000, 4, "gpu-simple", "gtx280")
    assert on_gtx.optimal
    for preset in ("dual_gpu", "riscv_cluster_1024"):
        report = tune_workload(100, 5_000, 4, "gpu-simple", preset)
        assert not report.optimal
        assert report.recommended == "gpu-lockfree"
        assert report.advisory is not None


def test_tune_rejects_unmodeled_strategy():
    with pytest.raises(ConfigError, match="unmodeled"):
        tune_workload(100, 5_000, 8, "gpu-sense-reversal")


def test_tune_report_envelope_round_trip():
    report = tune_workload(100, 5_000, 30, "gpu-simple", "gtx280")
    envelope = json.loads(report.to_json())
    assert envelope["schema"] == 3
    assert envelope["kind"] == "tune-report"
    assert envelope["configured"] == "gpu-simple"
    assert envelope["recommended"] == "gpu-lockfree"
    assert envelope["optimal"] is False
    assert envelope["advisory"]["code"] == "SC100"
    assert set(envelope["predictions"]) == set(MODELED_STRATEGIES)


def test_tune_measured_sweep_validates_the_model():
    report = tune_workload(
        20, 5_000, 8, "gpu-lockfree", "gtx280", measure=True, measure_rounds=10
    )
    assert set(report.measured_sync_ns) == set(MODELED_STRATEGIES)
    assert report.measured_null_ns is not None
    assert all(v > 0 for v in report.measured_sync_ns.values())
    # The measured sweep agrees with the model's headline call: lock-free
    # synchronizes cheaper than simple at this grid.
    measured = report.measured_sync_ns
    assert measured["gpu-lockfree"] < measured["gpu-simple"]
    assert report.measured_best == "gpu-lockfree"
    assert "measured sync overhead" in report.render()


# ---------------------------------------------------------------------------
# Typed errors at the model boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: predict_all(10, 100, "3"),
        lambda: predict_all(10, 100, 2.5),
        lambda: predict_all(10, 100, True),
        lambda: predict_all(10, 100, 0),
        lambda: predict_all(2.5, 100, 4),
        lambda: predict_all(10, 100, 4, config="gtx280"),
        lambda: predict_all(10, float("nan"), 4),
        lambda: predict_all(10, float("inf"), 4),
        lambda: predict_all(10, -1, 4),
        lambda: predict_all(2, [100, float("nan")], 4),
        lambda: predict_all(10, "100", 4),
        lambda: tree_cost(4, 2.0),
        lambda: tree_cost(4, True),
        lambda: simple_cost(4.0),
        lambda: barrier_cost("gpu-sense-reversal", 4, get_preset("gtx280")),
        lambda: barrier_cost("gpu-simple", 4, "gtx280"),
        lambda: barrier_cost(["gpu-simple"], 4, get_preset("gtx280")),
        lambda: tune_workload(100, float("nan"), 4, "gpu-simple"),
    ],
    ids=[
        "blocks-str", "blocks-float", "blocks-bool", "blocks-zero",
        "rounds-float", "config-str", "compute-nan", "compute-inf",
        "compute-negative", "compute-seq-nan", "compute-str",
        "tree-levels-float", "tree-levels-bool", "simple-blocks-float",
        "barrier-unmodeled", "barrier-config-str", "barrier-strategy-list",
        "tune-compute-nan",
    ],
)
def test_model_boundary_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()


# ---------------------------------------------------------------------------
# Co-residency: tune ranks only what run would accept
# ---------------------------------------------------------------------------


def test_predict_all_leaves_out_grids_beyond_co_residency():
    preds = predict_all(100, 5_000, 200)  # gtx280: 30-block limit
    assert set(preds) == {"cpu-explicit", "cpu-implicit"}
    cfg = get_preset("fermi_class")
    limit = cfg.topology.max_co_resident_blocks(cfg)
    assert set(predict_all(100, 5_000, limit, cfg)) == set(MODELED_STRATEGIES)
    assert set(predict_all(100, 5_000, limit + 1, cfg)) == {
        "cpu-explicit", "cpu-implicit"
    }


@pytest.mark.parametrize("preset", preset_names())
def test_tune_never_recommends_a_grid_run_rejects(preset):
    cfg = get_preset(preset)
    limit = cfg.topology.max_co_resident_blocks(cfg)
    report = tune_workload(100, 5_000, limit + 1, "cpu-implicit", preset)
    for strategy in report.predictions:
        get_strategy(strategy).validate_grid(cfg, limit + 1)
    assert report.recommended == "cpu-implicit"


def test_tune_raises_occupancy_error_for_an_infeasible_configured_strategy():
    with pytest.raises(OccupancyError, match="gpu-lockfree: 200 blocks exceed"):
        tune_workload(100, 5_000, 200, "gpu-lockfree")


def test_tune_measure_beyond_the_limit_raises_before_running(monkeypatch):
    import repro.model.tune as tune

    monkeypatch.setattr(tune, "_measure", pytest.fail)
    with pytest.raises(OccupancyError, match="null: 31 blocks exceed"):
        tune_workload(100, 5_000, 31, "cpu-implicit", measure=True)
