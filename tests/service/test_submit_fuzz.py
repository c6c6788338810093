"""Boundary fuzz: the job-submission surface answers; it never raises.

:func:`~repro.service.runners.validate_spec` gets arbitrary JSON values
and either returns a normalized spec or raises a ``kind="spec"``
:class:`~repro.errors.ServiceError`.  :meth:`ServiceApp.handle_submit`
gets arbitrary bytes, and JSON documents shaped like specs so that some
reach the job table; it always answers 201, 200, 400, 429 or 503 with a
``job-status`` or ``service-error`` envelope.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import ServiceApp
from repro.service.runners import _PARAMS, RUNNERS, validate_spec

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
PARAM_NAMES = sorted({name for params in _PARAMS.values() for name in params})

#: spec-shaped objects: known experiments and parameter names, any values.
SPECS = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from(sorted(RUNNERS)) | JSON_VALUES,
        "params": st.dictionaries(
            st.sampled_from(PARAM_NAMES) | st.text(max_size=8),
            JSON_VALUES,
            max_size=3,
        )
        | JSON_VALUES,
    },
    optional={"extra": JSON_VALUES},
)

DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000
HUGE_INT = (
    b'{"experiment":"chaos","params":{"seed":' + b"9" * 4_400 + b"}}"
)


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    app = ServiceApp(
        tmp_path_factory.mktemp("svc"),
        port=0,
        workers=0,
        max_queued=4,
    )
    app.start()
    yield app
    app.drain(grace_s=1.0)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS | JSON_VALUES)
def test_validate_spec_returns_a_spec_or_refuses(spec):
    try:
        out = validate_spec(spec)
    except ServiceError as exc:
        assert exc.kind == "spec"
    else:
        assert set(out) == {"experiment", "params"}


def assert_answered(app, body: bytes) -> None:
    status, _, text = app.handle_submit(body)
    assert status in (200, 201, 400, 429, 503)
    kind = "job-status" if status in (200, 201) else "service-error"
    assert json.loads(text)["kind"] == kind


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=64))
@example(body=DEEP_ARRAY)
@example(body=HUGE_INT)
def test_submit_answers_any_bytes(app, body):
    assert_answered(app, body)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS | JSON_VALUES)
def test_submit_answers_any_json(app, spec):
    assert_answered(app, json.dumps(spec).encode("utf-8"))


@pytest.mark.parametrize("body", [DEEP_ARRAY, HUGE_INT], ids=["deep", "huge-int"])
def test_undecodable_body_is_a_spec_refusal(app, body):
    status, _, text = app.handle_submit(body)
    assert status == 400
    assert json.loads(text)["error"]["kind"] == "spec"
