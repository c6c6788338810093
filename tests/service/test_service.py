"""End-to-end tests for the HTTP app, the worker loop, and recovery.

The app runs with ``workers=0`` (no subprocesses) and the tests drive
:class:`~repro.service.worker.Worker` inline — hermetic, fast, and the
crash paths are exercised at the protocol level (lease manipulation)
rather than by actually killing processes; the CI service-smoke job
covers the real-SIGKILL variant.
"""

import http.client
import json
import threading

import pytest

from repro.errors import ServiceError
from repro.serialization import parse_job_failure, parse_result
from repro.service import JobTable, ServiceApp, ServiceClient, Worker

FIG11 = {"experiment": "fig11", "params": {"rounds": 2}}


@pytest.fixture
def app(tmp_path):
    app = ServiceApp(
        tmp_path / "svc",
        port=0,
        workers=0,
        lease_s=30.0,
        max_queued=2,
    )
    app.start()
    yield app
    if not app.draining:
        app.drain(grace_s=1.0)


@pytest.fixture
def client(app):
    return ServiceClient(app.url)


def inline_worker(app, **kwargs):
    return Worker(app.table, service_dir=app.service_dir, **kwargs)


# -- wire protocol ----------------------------------------------------------


def test_submit_poll_execute_fetch(app, client):
    job_id = client.submit(FIG11)["id"]
    status = client.status(job_id)
    assert status["state"] == "queued" and status["spec"] == FIG11

    assert inline_worker(app).run_once()
    final = client.wait(job_id, timeout_s=30)
    assert final["state"] == "done"

    from repro.harness import experiments

    text = client.result_text(job_id)
    assert text == experiments.fig11(rounds=2).to_json()


def test_resubmission_dedups_over_http(app, client):
    body = json.dumps(FIG11).encode("utf-8")
    status, first = client._request("POST", "/jobs", body)
    assert status == 201  # created
    status, again = client._request("POST", "/jobs", body)
    assert status == 200  # dedup hit, nothing enqueued
    assert json.loads(again)["id"] == json.loads(first)["id"]
    assert len(app.table.list_jobs()) == 1


def test_bad_spec_is_http_400(client):
    with pytest.raises(ServiceError, match="unknown experiment") as err:
        client.submit({"experiment": "nope"})
    assert err.value.kind == "spec"


def test_full_queue_is_http_429(client):
    client.submit(FIG11)
    client.submit({"experiment": "fig11", "params": {"rounds": 3}})
    with pytest.raises(ServiceError, match="queue is full") as err:
        client.submit({"experiment": "fig11", "params": {"rounds": 4}})
    assert err.value.kind == "queue-full"


def test_unknown_job_is_http_404(client):
    with pytest.raises(ServiceError, match="no job") as err:
        client.status("0" * 16)
    assert err.value.kind == "not-found"
    with pytest.raises(ServiceError) as err:
        client.result_text("0" * 16)
    assert err.value.kind == "not-found"


def test_result_of_inflight_job_is_404_with_status(app, client):
    job_id = client.submit(FIG11)["id"]
    status, body = client._request("GET", f"/jobs/{job_id}/result")
    assert status == 404
    assert parse_result(body, kind="job-status")["state"] == "queued"


def test_failed_job_serves_its_envelope_with_409(app, client):
    from repro.serialization import dump_job_failure

    job_id = client.submit(FIG11)["id"]
    app.table.claim("w1")
    # force the terminal state through the table; the envelope text is
    # served verbatim
    envelope = dump_job_failure("BarrierError", "boom", job_id=job_id, attempts=1)
    assert app.table.fail(job_id, "w1", envelope)
    with pytest.raises(ServiceError, match="job .* failed|boom|BarrierError") as err:
        client.result_text(job_id)
    assert err.value.kind == "state"
    status, body = client._request("GET", f"/jobs/{job_id}/result")
    assert status == 409 and body == envelope


def test_job_list_envelope(app, client):
    client.submit(FIG11)
    status, body = client._request("GET", "/jobs")
    payload = parse_result(body, kind="job-list")
    assert status == 200 and len(payload["jobs"]) == 1


def test_unknown_route_is_404(client):
    for path in ("/nope", "/jobs/x/y/z", "/jobs/x/nope"):
        status, _ = client._request("GET", path)
        assert status == 404
    status, _ = client._request("POST", "/nope", b"{}")
    assert status == 404


def test_healthz_and_readyz(app, client):
    assert client.healthz() is True
    ok, ready = client.readyz()
    assert ok and ready["ready"] is True
    assert ready["counts"] == {"queued": 0, "leased": 0, "done": 0, "failed": 0}
    assert "uptime_s" in ready and ready["workers"] == 0
    # Survived-but-counted sweep failures are part of readiness:
    # a reaper quietly erroring every interval must be visible.
    assert ready["reaper"] == {"requeued": 0, "failed": 0, "errors": 0}


def test_drain_flips_readiness_and_refuses_submissions(app, client):
    app.drain(grace_s=1.0)
    # the server socket is closed after drain; talk to the handler
    # methods directly for the post-drain protocol
    status, _, body = app.handle_submit(json.dumps(FIG11).encode())
    assert status == 503
    payload = parse_result(body, kind="service-error")
    assert payload["error"]["kind"] == "draining"
    status, _, body = app.handle_readyz()
    assert status == 503
    assert parse_result(body, kind="ready")["draining"] is True


def test_submit_garbage_body_is_400(client):
    status, body = client._request("POST", "/jobs", b"{not json")
    assert status == 400
    assert parse_result(body, kind="service-error")["error"]["kind"] == "spec"


@pytest.mark.parametrize("experiment", [[], {}])
def test_submit_unhashable_experiment_is_400(client, experiment):
    body = json.dumps({"experiment": experiment}).encode()
    status, text = client._request("POST", "/jobs", body)
    assert status == 400
    error = parse_result(text, kind="service-error")["error"]
    assert error["kind"] == "spec" and "unknown experiment" in error["message"]


@pytest.mark.parametrize("length", ["abc", "-5", "1.5", "+3", "1_0", "0x10"])
def test_bad_content_length_is_typed_400(app, length):
    host, port = app.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        status, text = response.status, response.read().decode("utf-8")
    finally:
        conn.close()
    assert status == 400
    error = parse_result(text, kind="service-error")["error"]
    assert error["kind"] == "spec" and "Content-Length" in error["message"]


# -- recovery through the full stack ----------------------------------------


def test_requeued_job_reruns_byte_identical(app, client):
    """Lease loss mid-flight: the first worker's completion is rejected,
    the rerun replays the journal, and the served bytes still match an
    uninterrupted run — the acceptance contract, protocol-level."""
    job_id = client.submit(FIG11)["id"]
    w1 = inline_worker(app)
    # Steal the lease out from under w1 the way the reaper would:
    # expire it and requeue before w1 finishes. Simplest deterministic
    # way inline: run w1 fully, but requeue first so its complete is
    # late. claim() via run_once happens inside, so instead claim here.
    job = app.table.claim(w1.owner)
    assert job["id"] == job_id
    # Reaper acts: force-expire by direct requeue (lease-conditional
    # rejection is what we are testing, not the clock).  The background
    # reaper is stopped first so that this requeue is the one that acts.
    import sqlite3

    app.reaper.stop()
    app.reaper.join()

    conn = sqlite3.connect(app.table.path)
    conn.execute("UPDATE jobs SET lease_expires_at=0 WHERE id=?", (job_id,))
    conn.commit()
    conn.close()
    assert app.table.requeue_expired() == ([job_id], [])

    # w1 finishes late: its result must be discarded.
    w1._execute(job)
    assert w1.stale_results == 1
    assert client.status(job_id)["state"] == "queued"

    # The rerun wins (after the 1s backoff window) and serves bytes
    # identical to a direct run.
    import time

    deadline = time.time() + 30
    w2 = inline_worker(app)
    while time.time() < deadline:
        if w2.run_once():
            break
        time.sleep(0.1)
    from repro.harness import experiments

    assert client.wait(job_id, timeout_s=30)["state"] == "done"
    assert client.result_text(job_id) == experiments.fig11(rounds=2).to_json()
    assert client.status(job_id)["attempts"] == 2


def test_worker_marks_deterministic_failure(app, client):
    """A spec that raises a typed ReproError fails immediately with a
    job-failure envelope — no retries for deterministic errors."""
    table = app.table
    # Enqueue a spec that validates but whose execution raises: fig11
    # with rounds=0 — check it actually raises; otherwise craft one.
    job, _ = table.submit(FIG11)
    claimed = table.claim("w1")

    # Drive the worker's failure path directly via a runner monkeypatch.
    from repro.errors import ExperimentError
    from repro.service import runners

    original = runners.RUNNERS["fig11"]
    runners.RUNNERS["fig11"] = lambda params, executor: (_ for _ in ()).throw(
        ExperimentError("deterministic boom")
    )
    try:
        w = inline_worker(app, owner="w1")
        w._execute(claimed)
    finally:
        runners.RUNNERS["fig11"] = original

    row = table.get(job["id"])
    assert row["state"] == "failed"
    payload = parse_job_failure(row["error"])
    assert payload["error"]["type"] == "ExperimentError"
    assert "deterministic boom" in payload["error"]["message"]


def test_cold_start_recovers_orphaned_leases(tmp_path):
    """A restarted service's first reaper sweep requeues every lease a
    dead instance left behind — restart needs no other recovery step."""
    table = JobTable(tmp_path / "svc" / "jobs.sqlite3", lease_s=0.001)
    job, _ = table.submit(FIG11)
    table.claim("dead-worker")
    import time

    time.sleep(0.01)  # lease long expired; its owner no longer exists

    app = ServiceApp(tmp_path / "svc", port=0, workers=0)
    app.start()
    try:
        row = app.table.get(job["id"])
        assert row["state"] == "queued" and row["lease_owner"] is None
        assert app.reaper.requeued == 1
    finally:
        app.drain(grace_s=1.0)


def test_drain_of_an_unstarted_app_returns(tmp_path):
    """An app that was built but never started drains at once: no
    serve_forever loop to wait for, yet its socket and table close."""
    app = ServiceApp(tmp_path / "svc", port=0, workers=0)
    drainer = threading.Thread(
        target=app.drain, kwargs={"grace_s": 0.1}, daemon=True
    )
    drainer.start()
    drainer.join(timeout=10.0)
    assert not drainer.is_alive(), "drain of an unstarted app hung"
    assert app.server.socket.fileno() == -1
    assert app.table._idle == []
