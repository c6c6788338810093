"""Lease lifecycle tests for the durable job table.

Every test drives the table through an injectable fake clock, so the
edges the lease protocol hinges on — a heartbeat arriving *exactly* at
the expiry instant, the reaper racing a worker's late result, the
retry budget running out — are deterministic, not timing-dependent.
"""

import pytest

from repro.errors import ServiceError
from repro.serialization import parse_job_failure
from repro.service import JobTable, job_id_for
from repro.service.jobs import LOCK_RETRIES, LOCK_RETRY_BASE_S

SPEC = {"experiment": "fig11", "params": {"rounds": 5}}
OTHER = {"experiment": "fig11", "params": {"rounds": 7}}


class FakeClock:
    """A settable clock the table reads on every operation."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def table(tmp_path, clock):
    return JobTable(
        tmp_path / "jobs.sqlite3",
        lease_s=30.0,
        retry_budget=2,
        clock=clock,
    )


# -- identity and submission ------------------------------------------------


def test_job_id_is_deterministic_and_order_insensitive():
    flipped = {"params": {"rounds": 5}, "experiment": "fig11"}
    assert job_id_for(SPEC) == job_id_for(flipped)
    assert len(job_id_for(SPEC)) == 16
    assert job_id_for(SPEC) != job_id_for(OTHER)


def test_submit_dedups_to_one_row(table):
    job, created = table.submit(SPEC)
    assert created and job["state"] == "queued" and job["attempts"] == 0
    again, created = table.submit(dict(SPEC))
    assert not created
    assert again["id"] == job["id"]
    assert len(table.list_jobs()) == 1


def test_submit_dedups_in_every_state(table):
    job, _ = table.submit(SPEC)
    claimed = table.claim("w1")
    assert claimed["id"] == job["id"]
    _, created = table.submit(SPEC)
    assert not created  # leased
    assert table.complete(job["id"], "w1", "envelope-bytes")
    done, created = table.submit(SPEC)
    assert not created and done["state"] == "done"  # served, not re-run


def test_full_queue_refuses_new_work_but_not_dedup(tmp_path, clock):
    table = JobTable(tmp_path / "jobs.sqlite3", max_queued=1, clock=clock)
    table.submit(SPEC)
    with pytest.raises(ServiceError, match="queue is full") as err:
        table.submit(OTHER)
    assert err.value.kind == "queue-full"
    _, created = table.submit(SPEC)  # dedup costs no execution: never refused
    assert not created


def test_schema_mismatch_fails_loudly(tmp_path, clock):
    import sqlite3

    JobTable(tmp_path / "jobs.sqlite3", clock=clock)
    conn = sqlite3.connect(tmp_path / "jobs.sqlite3")
    conn.execute("UPDATE meta SET value='999' WHERE key='job-schema'")
    conn.commit()
    conn.close()
    with pytest.raises(ServiceError, match="schema 999"):
        JobTable(tmp_path / "jobs.sqlite3", clock=clock)


def test_constructor_rejects_bad_knobs(tmp_path):
    with pytest.raises(ServiceError, match="lease_s"):
        JobTable(tmp_path / "a.sqlite3", lease_s=0)
    with pytest.raises(ServiceError, match="retry_budget"):
        JobTable(tmp_path / "b.sqlite3", retry_budget=-1)
    with pytest.raises(ServiceError, match="max_queued"):
        JobTable(tmp_path / "c.sqlite3", max_queued=0)


# -- claim ordering ---------------------------------------------------------


def test_claim_takes_oldest_eligible_first(table, clock):
    first, _ = table.submit(SPEC)
    clock.advance(1.0)
    table.submit(OTHER)
    job = table.claim("w1")
    assert job["id"] == first["id"]
    assert job["state"] == "leased"
    assert job["attempts"] == 1
    assert job["lease_owner"] == "w1"
    assert job["lease_expires_at"] == pytest.approx(clock.now + 30.0)


def test_claim_respects_backoff_eligibility(table, clock):
    table.submit(SPEC)
    table.claim("w1")
    clock.advance(30.0)  # lease expires
    requeued, _ = table.requeue_expired()
    # eligible_at = now + lease_s / 30 = now + 1s
    assert table.claim("w2") is None
    clock.advance(1.0)
    job = table.claim("w2")
    assert job is not None and job["id"] == requeued[0]


def test_claim_empty_table_returns_none(table):
    assert table.claim("w1") is None


# -- heartbeat edges (satellite: lease lifecycle) ---------------------------


def test_heartbeat_extends_a_live_lease(table, clock):
    job, _ = table.submit(SPEC)
    table.claim("w1")
    clock.advance(29.999)
    assert table.heartbeat(job["id"], "w1")
    refreshed = table.get(job["id"])
    assert refreshed["lease_expires_at"] == pytest.approx(clock.now + 30.0)


def test_heartbeat_exactly_at_expiry_is_refused(table, clock):
    """Expiry is inclusive: at the deadline instant the reaper is the
    only authority, so a heartbeat landing exactly then must lose."""
    job, _ = table.submit(SPEC)
    table.claim("w1")
    clock.advance(30.0)  # now == lease_expires_at, to the tick
    assert not table.heartbeat(job["id"], "w1")
    # ...and the reaper agrees the lease is dead at the same instant.
    requeued, failed = table.requeue_expired()
    assert requeued == [job["id"]] and failed == []


def test_heartbeat_from_wrong_owner_is_refused(table, clock):
    job, _ = table.submit(SPEC)
    table.claim("w1")
    assert not table.heartbeat(job["id"], "w2")
    assert not table.heartbeat("no-such-job", "w1")


# -- reaper vs late result (satellite: lease lifecycle) ---------------------


def test_late_result_before_reap_is_accepted(table, clock):
    """A worker may complete after its deadline as long as the reaper
    has not acted: the work is done, accepting beats re-running."""
    job, _ = table.submit(SPEC)
    table.claim("w1")
    clock.advance(45.0)  # deadline long gone, reaper slow
    assert table.complete(job["id"], "w1", "envelope-bytes")
    done = table.get(job["id"])
    assert done["state"] == "done" and done["result"] == "envelope-bytes"
    # The reaper arriving now finds nothing leased: the race commuted.
    assert table.requeue_expired() == ([], [])


def test_late_result_after_reap_is_discarded(table, clock):
    """Once the reaper requeued the job, the original owner's result
    must bounce off the lease-conditional update — the rerun wins."""
    job, _ = table.submit(SPEC)
    table.claim("w1")
    clock.advance(30.0)
    assert table.requeue_expired() == ([job["id"]], [])
    assert not table.complete(job["id"], "w1", "late-bytes")
    assert not table.fail(job["id"], "w1", "late-error")
    row = table.get(job["id"])
    assert row["state"] == "queued" and row["result"] is None
    # The second attempt owns the job outright.
    clock.advance(1.0)
    rerun = table.claim("w2")
    assert rerun["attempts"] == 2
    assert table.complete(job["id"], "w2", "rerun-bytes")
    assert table.get(job["id"])["result"] == "rerun-bytes"


def test_completion_requires_the_current_owner(table, clock):
    job, _ = table.submit(SPEC)
    table.claim("w1")
    assert not table.complete(job["id"], "w2", "bytes")
    assert table.get(job["id"])["state"] == "leased"


# -- retry budget (satellite: lease lifecycle) ------------------------------


@pytest.mark.parametrize(
    "lease_s, expected",
    [
        # The default lease: 1 s doubling, capped at 60 s from the 7th
        # expiry on.
        pytest.param(
            30.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0], id="lease-30s"
        ),
        # A short lease backs off in proportion: 1/30 s doubling,
        # capped at two leases.
        pytest.param(
            1.0,
            [1 / 30, 2 / 30, 4 / 30, 8 / 30, 16 / 30, 32 / 30, 2.0, 2.0],
            id="lease-1s",
        ),
    ],
)
def test_backoff_grows_exponentially_and_caps(tmp_path, clock, lease_s, expected):
    table = JobTable(
        tmp_path / "jobs.sqlite3",
        lease_s=lease_s,
        retry_budget=len(expected),
        clock=clock,
    )
    job, _ = table.submit(SPEC)
    delays = []
    for _ in expected:
        eligible = table.get(job["id"])["eligible_at"]
        clock.now = max(clock.now, eligible)
        assert table.claim("w1") is not None
        clock.advance(lease_s)
        table.requeue_expired()
        delays.append(table.get(job["id"])["eligible_at"] - clock.now)
    assert delays == pytest.approx(expected)


def test_retry_budget_exhaustion_yields_typed_failure(table, clock):
    """retry_budget=2 buys 3 executions total; the third expiry marks
    the job failed with a parseable ``job-failure`` envelope."""
    job, _ = table.submit(SPEC)
    for attempt in (1, 2):
        clock.now = max(clock.now, table.get(job["id"])["eligible_at"])
        claimed = table.claim(f"w{attempt}")
        assert claimed["attempts"] == attempt
        clock.advance(30.0)
        requeued, failed = table.requeue_expired()
        assert requeued == [job["id"]] and failed == []
    clock.now = max(clock.now, table.get(job["id"])["eligible_at"])
    assert table.claim("w3")["attempts"] == 3
    clock.advance(30.0)
    requeued, failed = table.requeue_expired()
    assert requeued == [] and failed == [job["id"]]

    row = table.get(job["id"])
    assert row["state"] == "failed"
    payload = parse_job_failure(row["error"])
    assert payload["id"] == job["id"]
    assert payload["attempts"] == 3
    assert payload["error"]["type"] == "LeaseRetryExhausted"
    assert "retry budget 2" in payload["error"]["message"]
    # Terminal: nothing left to claim or reap.
    clock.advance(120.0)
    assert table.claim("w4") is None
    assert table.requeue_expired() == ([], [])


def test_release_refunds_the_attempt(table, clock):
    """Graceful preemption (SIGTERM drain) hands the job back without
    charging the retry budget — only crashes spend attempts."""
    job, _ = table.submit(SPEC)
    assert table.claim("w1")["attempts"] == 1
    assert table.release(job["id"], "w1")
    row = table.get(job["id"])
    assert row["state"] == "queued" and row["attempts"] == 0
    assert row["eligible_at"] == clock.now  # no backoff either
    assert not table.release(job["id"], "w1")  # lease is gone


# -- inspection -------------------------------------------------------------


def test_counts_cover_every_state(table, clock):
    assert table.counts() == {"queued": 0, "leased": 0, "done": 0, "failed": 0}
    table.submit(SPEC)
    table.submit(OTHER)
    claimed = table.claim("w1")
    counts = table.counts()
    assert counts["queued"] == 1 and counts["leased"] == 1
    table.complete(claimed["id"], "w1", "bytes")
    assert table.counts()["done"] == 1


def test_get_unknown_job_is_none(table):
    assert table.get("0" * 16) is None


# -- completion proof columns (schema v2) -----------------------------------


def test_schema_version_is_2():
    from repro.service.jobs import JOB_SCHEMA_VERSION

    assert JOB_SCHEMA_VERSION == 2


def test_complete_stamps_completions_and_completed_by(table, clock):
    job, _ = table.submit(SPEC)
    row = table.get(job["id"])
    assert row["completions"] == 0 and row["completed_by"] is None
    table.claim("worker-1@hostA")
    assert table.complete(job["id"], "worker-1@hostA", "bytes")
    row = table.get(job["id"])
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-1@hostA"


def test_rejected_late_complete_does_not_touch_the_proof(table, clock):
    """The no-double-completion invariant is *recorded*: a bounced late
    result must leave both proof columns exactly as the winner wrote
    them."""
    job, _ = table.submit(SPEC)
    table.claim("worker-1@hostA")
    clock.advance(30.0)
    table.requeue_expired()
    clock.advance(1.0)
    table.claim("worker-2@hostB")
    assert table.complete(job["id"], "worker-2@hostB", "winner-bytes")
    assert not table.complete(job["id"], "worker-1@hostA", "loser-bytes")
    row = table.get(job["id"])
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-2@hostB"


# -- locked-database retry (satellite: contention never crashes a worker) ---


def test_locked_error_is_retried_with_backoff(table, monkeypatch):
    """An injected 'database is locked' inside the complete transaction
    must be absorbed by the retry loop — the caller never sees it."""
    import time as _time

    from repro.faults import crashpoints
    from repro.faults.crashpoints import CrashPlan, CrashSpec

    sleeps = []
    monkeypatch.setattr(
        "repro.service.jobs.time.sleep", lambda s: sleeps.append(s)
    )
    job, _ = table.submit(SPEC)
    table.claim("w1")
    plan = CrashPlan(
        [
            CrashSpec("jobs.complete.pre-commit", "raise-operational", hit=1),
            CrashSpec("jobs.complete.pre-commit", "raise-operational", hit=2),
        ]
    )
    with crashpoints.armed(plan) as armed:
        assert table.complete(job["id"], "w1", "bytes")
        assert len(armed.fired) == 2
    assert table.get(job["id"])["state"] == "done"
    # Capped exponential backoff: base * 2**attempt.
    assert sleeps == [
        pytest.approx(LOCK_RETRY_BASE_S),
        pytest.approx(LOCK_RETRY_BASE_S * 2),
    ]
    _ = _time  # keep the import local to the test


def test_locked_retries_are_capped(table, monkeypatch):
    """Past LOCK_RETRIES retries the OperationalError propagates — a
    permanently wedged database must not hang the worker forever."""
    import sqlite3

    from repro.faults import crashpoints
    from repro.faults.crashpoints import CrashPlan, CrashSpec

    monkeypatch.setattr("repro.service.jobs.time.sleep", lambda s: None)
    job, _ = table.submit(SPEC)
    table.claim("w1")
    plan = CrashPlan(
        [
            CrashSpec("jobs.complete.pre-commit", "raise-operational", hit=h)
            for h in range(1, LOCK_RETRIES + 2)
        ]
    )
    with crashpoints.armed(plan):
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            table.complete(job["id"], "w1", "bytes")
    # The transaction never committed: the job is still leased, and a
    # clean retry by the same owner succeeds.
    assert table.get(job["id"])["state"] == "leased"
    assert table.complete(job["id"], "w1", "bytes")


def test_non_locked_operational_error_is_not_retried(table, monkeypatch):
    """Only contention is retried; anything else propagates first try."""
    import sqlite3

    from repro.faults import crashpoints
    from repro.faults.crashpoints import CrashPlan, CrashSpec

    sleeps = []
    monkeypatch.setattr(
        "repro.service.jobs.time.sleep", lambda s: sleeps.append(s)
    )
    job, _ = table.submit(SPEC)
    table.claim("w1")
    with crashpoints.armed(
        CrashPlan([CrashSpec("jobs.complete.pre-commit", "raise-oserror")])
    ):
        with pytest.raises(OSError, match="injected I/O error"):
            table.complete(job["id"], "w1", "bytes")
    assert sleeps == []
    assert table.get(job["id"])["state"] == "leased"  # rolled back


# -- connection reuse -------------------------------------------------------


@pytest.fixture
def connects(monkeypatch):
    """Every connection ``sqlite3.connect`` opens, in order."""
    import sqlite3

    opened = []
    real = sqlite3.connect

    def counting(*args, **kwargs):
        conn = real(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", counting)
    return opened


def _is_open(conn) -> bool:
    import sqlite3

    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return False
    return True


def test_one_thread_reuses_one_connection(tmp_path, clock, connects):
    table = JobTable(tmp_path / "jobs.sqlite3", clock=clock)
    job, _ = table.submit(SPEC)
    table.submit(SPEC)
    table.claim("w1")
    assert table.heartbeat(job["id"], "w1")
    assert table.complete(job["id"], "w1", "bytes")
    table.get(job["id"])
    table.list_jobs()
    table.counts()
    table.requeue_expired()
    assert len(connects) == 1


def test_a_new_pid_opens_a_new_connection(tmp_path, clock, connects, monkeypatch):
    """A forked child must not touch its parent's connections: it
    neither uses nor closes them, and opens its own."""
    import os

    table = JobTable(tmp_path / "jobs.sqlite3", clock=clock)
    table.submit(SPEC)
    assert len(connects) == 1
    parent = connects[0]
    child_pid = os.getpid() + 1
    monkeypatch.setattr("repro.service.jobs.os.getpid", lambda: child_pid)
    assert table.get(job_id_for(SPEC))["state"] == "queued"
    assert len(connects) == 2
    table.close()
    assert _is_open(parent)  # the parent's connection was left alone
    assert not _is_open(connects[1])


def test_close_leaves_no_connection_open(tmp_path, clock, connects):
    table = JobTable(tmp_path / "jobs.sqlite3", clock=clock)
    table.submit(SPEC)
    table.close()
    assert connects and not any(_is_open(conn) for conn in connects)
    # Still usable: the next operation reconnects.
    assert table.get(job_id_for(SPEC))["state"] == "queued"
    table.close()
    assert not any(_is_open(conn) for conn in connects)


def test_a_failed_operation_leaves_the_table_usable(tmp_path, clock, connects):
    """A non-lock error inside a transaction closes the connection it
    ran on; the next operation starts on a fresh one."""
    table = JobTable(tmp_path / "jobs.sqlite3", max_queued=1, clock=clock)
    table.submit(SPEC)
    with pytest.raises(ServiceError, match="queue is full"):
        table.submit(OTHER)
    assert len(connects) == 1 and not _is_open(connects[0])
    job = table.claim("w1")
    assert job["id"] == job_id_for(SPEC)
    assert table.complete(job["id"], "w1", "bytes")
    created = table.submit(OTHER)[1]
    assert created and table.counts() == {
        "queued": 1, "leased": 0, "done": 1, "failed": 0,
    }
    assert len(connects) == 2


def test_writes_from_another_connection_are_seen(table, clock):
    """A pooled connection holds no read snapshot between operations."""
    import sqlite3

    job, _ = table.submit(SPEC)
    assert table.get(job["id"])["state"] == "queued"
    assert table.counts()["queued"] == 1
    other = sqlite3.connect(table.path)
    other.execute("UPDATE jobs SET eligible_at=? WHERE id=?", (clock.now + 5, job["id"]))
    other.commit()
    assert table.get(job["id"])["eligible_at"] == clock.now + 5
    assert table.claim("w1") is None  # not yet eligible, as the write says
    other.execute("UPDATE jobs SET eligible_at=? WHERE id=?", (clock.now, job["id"]))
    other.commit()
    other.close()
    assert table.claim("w1")["id"] == job["id"]


def test_threads_share_the_pool_without_sharing_a_connection(tmp_path, connects):
    """More threads than cores, switching often: every job is completed
    exactly once, and no connection ever serves two operations at a
    time (a shared one would fail its BEGIN)."""
    import sys
    import threading

    table = JobTable(tmp_path / "jobs.sqlite3")
    threads, per_thread = 8, 15
    errors = []

    def hammer(t):
        try:
            for i in range(per_thread):
                spec = {"experiment": "fig11", "params": {"rounds": 100 * t + i + 1}}
                table.submit(spec)
                job = table.claim(f"w{t}")  # the oldest job, maybe not ours
                if job is not None:
                    assert table.complete(job["id"], f"w{t}", "bytes")
                    table.get(job["id"])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    while (job := table.claim("drain")) is not None:
        assert table.complete(job["id"], "drain", "bytes")
    assert table.counts()["done"] == threads * per_thread
    assert all(job["completions"] == 1 for job in table.list_jobs())
    assert len(connects) <= threads
    table.close()
    assert not any(_is_open(conn) for conn in connects)
