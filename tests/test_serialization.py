"""Tests for the shared versioned-envelope protocol."""

import json

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.gpu.presets import get_preset
from repro.harness import experiments
from repro.harness.store import load_result, load_sweep, save_sweep
from repro.serialization import (
    COMPATIBLE_SCHEMA_VERSIONS,
    RESULT_SCHEMA_VERSION,
    canonical_json,
    device_config_from_dict,
    device_config_to_dict,
    dump_result,
    parse_result,
    plain,
    require,
)


def test_plain_coerces_tuples_and_numpy():
    np = pytest.importorskip("numpy")
    value = {"a": (1, 2), "b": np.int64(3), "c": [np.float64(0.5)]}
    assert plain(value) == {"a": [1, 2], "b": 3, "c": [0.5]}


def test_plain_rejects_unserializable():
    with pytest.raises(ExperimentError, match="cannot serialize"):
        plain({"x": object()})


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": (2,)}) == canonical_json(
        {"a": [2], "b": 1}
    )


def test_envelope_roundtrip():
    text = dump_result("sweep", {"blocks": [1, 2]})
    payload = parse_result(text, kind="sweep")
    assert payload["schema"] == RESULT_SCHEMA_VERSION
    assert payload["blocks"] == [1, 2]


def test_kind_mismatch_names_source():
    text = dump_result("chaos-report", {})
    with pytest.raises(
        ExperimentError, match="a.json does not contain a sweep"
    ):
        parse_result(text, kind="sweep", source="a.json")


def test_schema_mismatch_names_versions():
    text = json.dumps({"schema": 99, "kind": "sweep"})
    with pytest.raises(ExperimentError, match="has schema 99.*version"):
        parse_result(text, kind="sweep", source="a.json")


def test_invalid_json_is_typed():
    with pytest.raises(ExperimentError, match="not valid JSON"):
        parse_result("{nope", kind="sweep")


def test_missing_field_is_typed_not_keyerror():
    payload = parse_result(dump_result("sweep", {}), kind="sweep")
    with pytest.raises(
        ExperimentError, match="b.json: missing required field 'blocks'"
    ):
        require(payload, "blocks", "b.json")


def test_device_config_roundtrip():
    cfg = get_preset("gtx280")
    again = device_config_from_dict(device_config_to_dict(cfg))
    assert again == cfg


@pytest.mark.parametrize("change, match", [
    ({"timeout_ns": 1_000_000}, "unexpected keyword argument 'timeout_ns'"),
    ({"num_sms": "30"}, "num_sms must be an int"),
    ({"timings": 5}, "bad device config: .* must be a mapping"),
    ({"timings": {"bogus_ns": 1}}, "unexpected keyword argument 'bogus_ns'"),
    ({"timings": {"atomic_ns": "x"}}, "bad device config"),
    ({"timings": {"atomic_ns": -1}}, "atomic_ns must be non-negative"),
    ({"topology": [1]}, "bad device config: .* must be a mapping"),
    ({"topology": {"domains": 2}}, "unexpected keyword argument 'domains'"),
    ({"topology": {"num_domains": "2"}}, "bad device config"),
])
def test_bad_device_config_dict_is_a_config_error(change, match):
    payload = {**device_config_to_dict(get_preset("gtx280")), **change}
    with pytest.raises(ConfigError, match=match):
        device_config_from_dict(payload)


def test_device_config_dict_must_be_an_object():
    with pytest.raises(ConfigError, match="bad device config"):
        device_config_from_dict([1, 2])


@pytest.fixture
def sweep():
    return experiments.fig11(rounds=5, blocks=[2, 4], strategies=["gpu-simple"])


def test_sweep_json_roundtrip(sweep):
    again = experiments.SweepResult.from_json(sweep.to_json())
    assert again == sweep
    assert again.to_json() == sweep.to_json()


def test_legacy_schema1_sweep_still_loads(tmp_path, sweep):
    legacy = {
        "schema": 1,
        "kind": "sweep",
        "algorithm": sweep.algorithm,
        "blocks": list(sweep.blocks),
        "totals": {k: list(v) for k, v in sweep.totals.items()},
        "nulls": list(sweep.nulls),
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    assert load_sweep(path) == sweep


def test_load_result_dispatches_on_kind(tmp_path, sweep):
    path = save_sweep(sweep, tmp_path / "s.json")
    assert load_result(path) == sweep

    from repro.faults.chaos import ChaosReport, chaos_campaign

    chaos = chaos_campaign("gpu-simple", plans=2, num_blocks=4)
    cpath = tmp_path / "c.json"
    cpath.write_text(chaos.to_json())
    assert isinstance(load_result(cpath), ChaosReport)

    from repro.sanitize.report import SanitizeReport
    from repro.sanitize.sanitizer import sanitize_run

    rep = sanitize_run(strategy="gpu-simple", num_blocks=4, schedules=2)
    spath = tmp_path / "r.json"
    spath.write_text(rep.to_json())
    assert isinstance(load_result(spath), SanitizeReport)


def test_load_result_unknown_kind(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"schema": 2, "kind": "mystery"}))
    with pytest.raises(ExperimentError, match="unknown result kind"):
        load_result(path)


def test_schema2_envelope_still_accepted():
    text = json.dumps({"schema": 2, "kind": "sweep", "blocks": [1]})
    assert parse_result(text, kind="sweep")["blocks"] == [1]
    assert COMPATIBLE_SCHEMA_VERSIONS == (2, RESULT_SCHEMA_VERSION)


def test_sweep_provenance_fields_roundtrip(sweep):
    sweep.retries = 3
    sweep.quarantined = [1, 4]
    sweep.resumed_from = "abcd" * 4
    again = experiments.SweepResult.from_json(sweep.to_json())
    assert again.retries == 3
    assert again.quarantined == [1, 4]
    # resumed_from is deliberately in-memory only: a resumed sweep must
    # serialize byte-identically to an uninterrupted one.
    assert again.resumed_from is None
    assert again == sweep
    assert '"resumed_from"' not in sweep.to_json()


def test_sweep_json_without_provenance_fields_loads(sweep):
    payload = json.loads(sweep.to_json())
    del payload["retries"]
    del payload["quarantined"]
    again = experiments.SweepResult.from_json(json.dumps(payload))
    assert again.retries == 0
    assert again.quarantined == []
