"""Boundary fuzz: the HTTP handler answers any ``POST /jobs`` header block.

``Content-Length`` is the one header ``do_POST`` reads.  The handler is
driven in process over in-memory streams with that header missing,
repeated, non-ASCII, huge or lying about a shorter body, and with
arbitrary extra header lines.  Every response it writes must be one of
``test_submit_fuzz.py``'s answers (201, 200, 400, 429 or 503 with a
``job-status`` or ``service-error`` envelope); the handler never raises
and never closes a connection without answering.
"""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import ServiceApp

ANSWERS = (200, 201, 400, 429, 503)

VALID = b'{"experiment":"chaos","params":{"plans":1}}'

#: Content-Length values: honest, absent, malformed, non-ASCII, huge.
LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=len(VALID) + 8).map(
        lambda n: str(n).encode()
    ),
    st.sampled_from([
        b"", b" ", b"-1", b"+5", b"0x10", b"1e3", b"5 5", b"\xff\xfe",
        "١٢".encode("utf-8"), b"9" * 5_000, b"9" * 70_000,
        str(2**63).encode(), str(10**18).encode(),
    ]),
    st.binary(max_size=12).filter(lambda b: b"\r" not in b and b"\n" not in b),
)

#: header lines beside Content-Length (names and values drawn freely).
EXTRA = st.lists(
    st.tuples(
        st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12),
        st.binary(max_size=16),
    ).map(lambda kv: kv[0].encode() + b": " + kv[1]).filter(
        lambda line: b"\r" not in line and b"\n" not in line
    ),
    max_size=3,
)


class _Connection:
    """A socket stand-in: reads from a request, collects what is sent."""

    def __init__(self, request: bytes):
        self._request = request
        self.sent = bytearray()

    def makefile(self, mode: str, buffering: int = -1):
        assert mode == "rb"
        return io.BufferedReader(io.BytesIO(self._request))

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def settimeout(self, timeout) -> None:
        pass

    def setsockopt(self, *args) -> None:
        pass


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    app = ServiceApp(
        tmp_path_factory.mktemp("svc"),
        port=0,
        workers=0,
        max_queued=4,
    )
    yield app
    app.drain(grace_s=1.0)


def exchange(app, request: bytes) -> bytes:
    """Serve ``request`` on one in-memory connection; the bytes answered."""
    conn = _Connection(request)
    app.server.RequestHandlerClass(conn, ("127.0.0.1", 0), app.server)
    return bytes(conn.sent)


def responses(raw: bytes):
    """Split a connection's output into ``(status, body)`` pairs."""
    out = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        fields = dict(line.split(": ", 1) for line in lines[1:])
        length = int(fields["Content-Length"])
        assert len(rest) >= length, "truncated response body"
        out.append((status, rest[:length]))
        raw = rest[length:]
    return out


def assert_answered(app, request: bytes) -> None:
    answers = responses(exchange(app, request))
    assert answers, "the connection closed without an answer"
    for status, body in answers:
        assert status in ANSWERS
        kind = "job-status" if status in (200, 201) else "service-error"
        assert json.loads(body)["kind"] == kind


def post(lengths, extra=(), body=VALID) -> bytes:
    head = [b"POST /jobs HTTP/1.1", b"Host: localhost"]
    head += [b"Content-Length: " + value for value in lengths]
    head += list(extra)
    return b"\r\n".join(head) + b"\r\n\r\n" + body


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(LENGTHS, max_size=3),
    extra=EXTRA,
    body=st.sampled_from([VALID, b"", b"{", b"\xff" * 8]),
)
@example(lengths=[b"9" * 5_000], extra=[], body=VALID)
@example(lengths=[b"9" * 70_000], extra=[], body=VALID)
@example(lengths=[str(10**18).encode()], extra=[], body=VALID)
@example(lengths=[b"44", b"2"], extra=[], body=VALID)
def test_any_content_length_is_answered(app, lengths, extra, body):
    assert_answered(app, post(lengths, extra, body))


@pytest.mark.parametrize(
    "lengths",
    [[b"9" * 5_000], [str(10**18).encode()], [b"44", b"2"], [b"\xff"]],
    ids=["digits-past-int-limit", "huge", "conflicting-repeat", "non-ascii"],
)
def test_bad_content_length_is_a_spec_refusal(app, lengths):
    ((status, body),) = responses(exchange(app, post(lengths)))
    assert status == 400
    assert json.loads(body)["error"]["kind"] == "spec"


def test_body_shorter_than_its_length_is_a_spec_refusal(app):
    ((status, body),) = responses(
        exchange(app, post([str(len(VALID) + 5).encode()]))
    )
    assert status == 400
    assert json.loads(body)["error"]["kind"] == "spec"


def test_honest_request_is_served(app):
    ((status, body),) = responses(
        exchange(app, post([str(len(VALID)).encode()]))
    )
    assert status in (200, 201)
    assert json.loads(body)["kind"] == "job-status"
