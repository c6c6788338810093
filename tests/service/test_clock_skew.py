"""Lease correctness when one host's clock is wrong (satellite of the
crash matrix's skew configs, docs/crashtest.md).

Two table handles share one SQLite file but read *different* clocks —
:func:`crashpoints.skewed_clock` over a common fake — with the skew
deliberately larger than the heartbeat period (``lease_s / 3``).  The
invariant under every skew: a worker either keeps its lease through
heartbeats or loses it cleanly to the reaper — **never** do two owners
both complete (``completions`` stays at 1, stamped by one owner).
"""

import pytest

from repro.faults.crashpoints import skewed_clock
from repro.service import JobTable

SPEC = {"experiment": "fig11", "params": {"rounds": 5}}
LEASE_S = 3.0
#: more than LEASE_S / 3: the skew overwhelms a whole heartbeat period.
SKEW_S = 1.2
#: just past the first requeue delay (LEASE_S / 30): a job whose lease
#: expired once is claimable again after this long.
PAST_BACKOFF_S = LEASE_S / 30 + 0.01


class FakeClock:
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


def make_table(path, clock, skew_s: float) -> JobTable:
    return JobTable(
        path,
        lease_s=LEASE_S,
        retry_budget=2,
        clock=skewed_clock(clock, skew_s),
    )


@pytest.fixture
def tables(tmp_path, clock):
    """(fast host's view, true-clock view, slow host's view) of one table."""
    path = tmp_path / "jobs.sqlite3"
    return (
        make_table(path, clock, +SKEW_S),
        make_table(path, clock, 0.0),
        make_table(path, clock, -SKEW_S),
    )


def test_fast_worker_writes_an_early_deadline(tables, clock):
    """A fast-clock claimant burns part of its own lease: the deadline
    it stamps is SKEW_S ahead of true time, so the fleet reaps it
    SKEW_S early — conservative, never unsafe."""
    fast, true, _ = tables
    job, _ = true.submit(SPEC)
    assert fast.claim("worker-1@fast") is not None
    row = true.get(job["id"])
    assert row["lease_expires_at"] == pytest.approx(
        clock.now + SKEW_S + LEASE_S
    )


def test_slow_worker_loses_the_lease_without_heartbeats(tables, clock):
    """A slow host still believes its lease is alive after true expiry;
    the reaper (true clock) must win, and the slow host's late complete
    must bounce — one completion, by the new owner."""
    _, true, slow = tables
    job, _ = true.submit(SPEC)
    clock.advance(SKEW_S)  # the slow host's view reaches eligible_at
    assert slow.claim("worker-1@slow") is not None
    # True time passes the deadline the slow host wrote (which is
    # SKEW_S *short* of what the slow host believes).
    clock.advance(LEASE_S - SKEW_S)
    assert true.requeue_expired() == ([job["id"]], [])
    # The slow host, whose own clock shows time remaining, now tries to
    # finish: its lease is gone, the update must refuse.
    assert not slow.complete(job["id"], "worker-1@slow", "late-bytes")
    clock.advance(PAST_BACKOFF_S)
    assert true.claim("worker-2@true") is not None
    assert true.complete(job["id"], "worker-2@true", "fresh-bytes")
    row = true.get(job["id"])
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-2@true"
    assert row["result"] == "fresh-bytes"


def test_slow_worker_keeps_the_lease_through_heartbeats(tables, clock):
    """Heartbeats at the lease/3 cadence outrun even a skewed clock:
    each beat rewrites the deadline from the *slow* clock, but the beat
    arrives every LEASE_S/3 of true time, so the deadline never falls
    behind true now as long as SKEW_S < LEASE_S * 2/3."""
    _, true, slow = tables
    job, _ = true.submit(SPEC)
    clock.advance(SKEW_S)  # the slow host's view reaches eligible_at
    assert slow.claim("worker-1@slow") is not None
    for _ in range(6):  # two full lease periods of true time
        clock.advance(LEASE_S / 3)
        assert slow.heartbeat(job["id"], "worker-1@slow")
        assert true.requeue_expired() == ([], [])
    assert slow.complete(job["id"], "worker-1@slow", "bytes")
    row = true.get(job["id"])
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-1@slow"


def test_never_both_owners_complete_under_skew(tables, clock):
    """The race the skew makes likely: the old (slow) owner and the
    requeued (fast) owner both hold results.  Whoever commits second
    must bounce off the lease-conditional update — completions is 1
    under every interleaving."""
    fast, true, slow = tables
    job, _ = true.submit(SPEC)
    clock.advance(SKEW_S)  # the slow host's view reaches eligible_at
    assert slow.claim("worker-1@slow") is not None
    clock.advance(LEASE_S)  # true expiry, slow host still confident
    assert true.requeue_expired() == ([job["id"]], [])
    clock.advance(PAST_BACKOFF_S)
    assert fast.claim("worker-2@fast") is not None
    # Order A: the new owner completes first, the old one bounces.
    assert fast.complete(job["id"], "worker-2@fast", "new-bytes")
    assert not slow.complete(job["id"], "worker-1@slow", "old-bytes")
    row = true.get(job["id"])
    assert row["state"] == "done"
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-2@fast"
    assert row["result"] == "new-bytes"


def test_never_both_owners_complete_old_owner_first(tables, clock):
    """Order B: the *old* owner sneaks its result in after requeue but
    before the new claim — refused too: the requeue already revoked the
    lease, so only the rerun can complete."""
    fast, true, slow = tables
    job, _ = true.submit(SPEC)
    clock.advance(SKEW_S)  # the slow host's view reaches eligible_at
    assert slow.claim("worker-1@slow") is not None
    clock.advance(LEASE_S)
    assert true.requeue_expired() == ([job["id"]], [])
    assert not slow.complete(job["id"], "worker-1@slow", "old-bytes")
    clock.advance(PAST_BACKOFF_S)
    assert fast.claim("worker-2@fast") is not None
    assert fast.complete(job["id"], "worker-2@fast", "new-bytes")
    row = true.get(job["id"])
    assert row["completions"] == 1
    assert row["completed_by"] == "worker-2@fast"


def test_fast_reaper_reaps_early_but_never_double_completes(tables, clock):
    """A reaper running on the fast host reaps a healthy lease SKEW_S
    early.  That costs a redundant re-execution — the deterministic
    rerun is byte-identical — but the completion counter still ends at
    exactly 1."""
    fast, true, slow = tables
    job, _ = true.submit(SPEC)
    assert true.claim("worker-1@true") is not None
    # The fast reaper sees expiry LEASE_S - SKEW_S into the true lease.
    clock.advance(LEASE_S - SKEW_S)
    assert fast.requeue_expired() == ([job["id"]], [])
    assert not true.complete(job["id"], "worker-1@true", "old-bytes")
    # The requeue stamped eligible_at from the fast clock; true time
    # must catch up to it before the honest host can claim.
    clock.advance(SKEW_S + PAST_BACKOFF_S)
    assert true.claim("worker-2@true") is not None
    assert true.complete(job["id"], "worker-2@true", "bytes")
    assert true.get(job["id"])["completions"] == 1
