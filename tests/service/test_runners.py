"""Spec validation and runner execution tests."""

import pytest

from repro.errors import ServiceError
from repro.service import execute_spec, validate_spec


# -- validation -------------------------------------------------------------


def test_valid_specs_normalize():
    spec = validate_spec({"experiment": "fig11", "params": {"rounds": 3}})
    assert spec == {"experiment": "fig11", "params": {"rounds": 3}}
    # params is optional and defaults empty
    assert validate_spec({"experiment": "fig11"})["params"] == {}
    # each count at its lower bound is accepted; there is no upper bound
    spec = {"experiment": "chaos", "params": {"plans": 0, "blocks": 1}}
    assert validate_spec(spec) == spec
    spec = {"experiment": "fig11", "params": {"rounds": 10**300}}
    assert validate_spec(spec) == spec


@pytest.mark.parametrize(
    "bad, match",
    [
        ("not a dict", "must be a JSON object"),
        ({"experiment": "fig11", "extra": 1}, "unknown key"),
        ({"experiment": "fig99"}, "unknown experiment"),
        ({}, "unknown experiment"),
        ({"experiment": "fig11", "params": [1]}, "'params' must be"),
        ({"experiment": "fig11", "params": {"seed": 1}}, "no parameter"),
        ({"experiment": "fig11", "params": {"rounds": "3"}}, "must be int"),
        ({"experiment": "fig11", "params": {"rounds": True}}, "must be int"),
        ({"experiment": "chaos", "params": {"strategy": 7}}, "must be str"),
        ({"experiment": []}, "unknown experiment"),
        ({"experiment": {}}, "unknown experiment"),
        ({"experiment": ["fig11"]}, "unknown experiment"),
        ({"experiment": "chaos", "params": {"plans": -3}}, "'plans' .* >= 0, got -3"),
        ({"experiment": "chaos", "params": {"blocks": 0}}, "'blocks' .* >= 1, got 0"),
        ({"experiment": "sanitize", "params": {"schedules": -1}}, "'schedules' .* >= 0"),
        ({"experiment": "fig11", "params": {"rounds": 0}}, "'rounds' .* >= 1"),
        ({"experiment": "algorithm-sweep", "params": {"step": 0}}, "'step' .* >= 1"),
    ],
)
def test_bad_specs_are_typed_refusals(bad, match):
    with pytest.raises(ServiceError, match=match) as err:
        validate_spec(bad)
    assert err.value.kind == "spec"


# -- execution --------------------------------------------------------------


def test_execute_spec_matches_direct_run(tmp_path):
    """A spec run through the service runner serializes byte-identically
    to calling the experiment directly — the property the whole
    result-serving path leans on."""
    from repro.harness import experiments

    reference = experiments.fig11(rounds=2).to_json()
    served = execute_spec(
        {"experiment": "fig11", "params": {"rounds": 2}},
        journal_dir=tmp_path / "journal",
    )
    assert served == reference


def test_execute_spec_rejects_invalid(tmp_path):
    with pytest.raises(ServiceError, match="unknown experiment"):
        execute_spec({"experiment": "nope"}, journal_dir=tmp_path)
