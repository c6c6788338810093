"""Boundary fuzz: the schema-3 envelope loaders load or refuse, typed.

Every loader of a stored or served envelope (``repro.serialization``'s
job-envelope parsers, the four report ``from_json`` methods and
:func:`repro.harness.store.load_result`) gets arbitrary text, arbitrary
bytes on disk, and valid envelopes with fields replaced or deleted at
any depth.  Each input must either load or raise a
:class:`~repro.errors.ReproError`; nothing else may escape.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults.chaos import ChaosReport, ChaosRunRecord
from repro.harness.experiments import SweepResult
from repro.harness.store import load_result
from repro.sanitize.report import Finding, SanitizeReport
from repro.serialization import (
    dump_job_failure,
    dump_job_status,
    parse_job_failure,
    parse_job_status,
    parse_result,
)
from repro.staticcheck.report import LintReport, StaticFinding

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
HUGE_INT = '{"kind": "sweep", "schema": ' + "9" * 4_400 + "}"


def _sanitize_report() -> SanitizeReport:
    report = SanitizeReport("micro", "gpu-simple", 4, 7, 2, 2, 1)
    finding = Finding("data-race", "stale read", seed=3, details={"array": "x"})
    report.findings.append(finding)
    report.occurrences[finding.fingerprint] = 1
    return report


def _lint_report() -> LintReport:
    report = LintReport(files=["a.py"], units_checked=1)
    report.findings.append(StaticFinding("SC001", "divergent barrier", "a.py", 3))
    return report


#: a valid envelope of every kind, and the loader that reads it back.
VALID = {
    "sweep": (
        SweepResult("fft", [1, 2], {"gpu-simple": [5, 4]}, [3, 2]).to_json(),
        SweepResult.from_json,
    ),
    "chaos-report": (
        ChaosReport("gpu-simple", "micro", 4, 1, 1, [
            ChaosRunRecord(1, ["driver-kill"], "recovered", 2, ["driver-kill"]),
        ]).to_json(),
        ChaosReport.from_json,
    ),
    "sanitize-report": (_sanitize_report().to_json(), SanitizeReport.from_json),
    "lint-report": (_lint_report().to_json(), LintReport.from_json),
    "job-status": (
        dump_job_status({"id": "j1", "spec": {"experiment": "fig11"},
                         "state": "done", "result": "x"}),
        parse_job_status,
    ),
    "job-failure": (
        dump_job_failure("ExperimentError", "boom", job_id="j1", attempts=2),
        parse_job_failure,
    ),
}
LOADERS = [loader for _, loader in VALID.values()]


def _paths(value, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, replacement):
    """``doc`` with the value at ``path`` replaced (None: deleted)."""
    if not path:
        return doc if replacement is None else replacement[0]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement[0]
    return doc


def load_or_refuse(loader, *args, **kwargs) -> None:
    try:
        loader(*args, **kwargs)
    except ReproError:
        pass


@st.composite
def mutated_envelopes(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = json.loads(VALID[kind][0])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        replacement = draw(st.none() | JSON_VALUES.map(lambda v: (v,)))
        doc = _mutate(doc, path, replacement)
    return kind, json.dumps(doc)


def test_valid_envelopes_load():
    for text, loader in VALID.values():
        loader(text)


@settings(max_examples=300, deadline=None)
@given(envelope=mutated_envelopes())
def test_mutated_envelopes_load_or_refuse(envelope, tmp_path_factory):
    kind, text = envelope
    load_or_refuse(VALID[kind][1], text)
    path = tmp_path_factory.mktemp("env") / "result.json"
    path.write_text(text)
    load_or_refuse(load_result, path)


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=40) | JSON_VALUES.map(json.dumps))
@example(text=DEEP_ARRAY)
@example(text=HUGE_INT)
def test_any_text_loads_or_refuses(text):
    load_or_refuse(parse_result, text, kind="sweep")
    for loader in LOADERS:
        load_or_refuse(loader, text)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=40))
@example(data=b"\xff\xfe{}")
@example(data=DEEP_ARRAY.encode())
@example(data=HUGE_INT.encode())
def test_any_bytes_on_disk_load_or_refuse(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("env") / "result.json"
    path.write_bytes(data)
    load_or_refuse(load_result, path)
