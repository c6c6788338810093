"""The durable job table: SQLite in WAL mode, leases, backoff, dedup.

One row per job, one file per service (``jobs.sqlite3`` under the
service directory).  The table is the *only* coordination point between
the HTTP app, the reaper and every worker process — there is no other
shared state, which is what makes a SIGKILLed worker or a restarted
service recoverable: whatever the table says, plus whatever the
write-ahead journal holds, *is* the in-flight state.

Design rules (py_experimenter's DB-backed experiment rows, adapted):

* **Content-addressed identity.**  A job id is the leading 16 hex chars
  of the sha256 of the canonical spec JSON (:func:`job_id_for`) — the
  same construction the result cache and the run journal use.  Two
  submissions of the same config are one row, one execution
  (``INSERT OR IGNORE``); a million users submitting the same fig11
  sweep cost one run.
* **Pull-based workers under time-bounded leases.**  ``claim`` moves
  the oldest eligible ``queued`` job to ``leased`` inside a single
  ``BEGIN IMMEDIATE`` transaction, stamping the owner and a lease
  deadline.  Workers extend the deadline with ``heartbeat``; a lease
  whose deadline has passed (``lease_expires_at <= now``, inclusive —
  at the expiry instant the lease is already dead) is *reapable*.
* **Conditional completion.**  ``complete``/``fail``/``release`` only
  take effect while the caller still owns the lease, so a worker whose
  lease was reaped and requeued cannot clobber the rerun — the late
  result is discarded (it is byte-identical anyway; the lease protocol
  just keeps ownership single-writer).  ``complete`` additionally
  stamps ``completed_by`` and increments a ``completions`` counter, so
  "no job was ever double-completed" is a *recorded* fact the crash
  matrix can assert, not an inference.
* **Bounded retries with exponential backoff.**  ``requeue_expired``
  (the reaper's engine) requeues an expired lease with an eligibility
  delay worked out from the lease, ``lease_s / 30 * 2**(attempts-1)``
  capped at ``2 * lease_s`` (1 s, 2 s, 4 s … 60 s at the default 30 s
  lease), until the job has used ``retry_budget`` re-executions — then
  it is marked ``failed`` with a typed, serialized ``job-failure``
  envelope.
* **Locked means retry, not crash.**  Under multi-host contention
  SQLite surfaces ``OperationalError: database is locked`` even with a
  busy timeout (WAL writers still serialize; a checkpoint can hold the
  lock past the timeout).  Every transaction here runs under a capped
  exponential-backoff retry loop (:data:`LOCK_RETRIES`), so contention
  costs latency, never a worker crash.
* **Connections outlive operations.**  Each table keeps a pool of idle
  connections (WAL mode, busy timeout, PRAGMAs set once when opened).
  An operation checks one out and puts it back when it ends cleanly;
  any exception closes it instead, so error and retry paths start on a
  fresh connection.  Read paths run their statements to completion, so
  an idle connection never holds a read snapshot.  Connections cross
  threads (``check_same_thread=False``: the HTTP server serves each
  request on a new thread) but never a fork: a child process leaves the
  connections it inherited untouched and opens its own.
  :meth:`JobTable.close` closes the idle ones.

Every timestamp comes from an injectable ``clock`` so the lease
lifecycle edges (heartbeat exactly at expiry, a reaper racing a late
result) are deterministically testable — and so a crash plan can skew
one host's clock against the fleet.

Every transaction is bracketed by two named crash points
(``jobs.<op>.pre-commit`` / ``jobs.<op>.post-commit``, see
:mod:`repro.faults.crashpoints`): the crash matrix kills or faults a
live worker at each of them and proves the table recovers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import ServiceError
from repro.faults import crashpoints
from repro.serialization import canonical_json, dump_job_failure

__all__ = [
    "JOB_SCHEMA_VERSION",
    "LOCK_RETRIES",
    "LOCK_RETRY_BASE_S",
    "LOCK_RETRY_CAP_S",
    "JobTable",
    "job_id_for",
]

#: bumped whenever the row format changes; stamped in a meta table so a
#: service restarted on an old database fails loudly, not subtly.
#: v2 added the ``completions`` counter and ``completed_by`` stamp.
JOB_SCHEMA_VERSION = 2

#: job ids are the leading 16 hex chars of the sha256 — the same
#: shape (and for the same reason) as the journal's run-ids.
_JOB_ID_HEX_CHARS = 16

#: a transaction that finds the database locked is retried this many
#: times, sleeping ``LOCK_RETRY_BASE_S * 2**attempt`` (at most
#: ``LOCK_RETRY_CAP_S``) before each retry.
LOCK_RETRIES = 5
LOCK_RETRY_BASE_S = 0.05
LOCK_RETRY_CAP_S = 1.0

_T = TypeVar("_T")


def job_id_for(spec: Dict[str, Any]) -> str:
    """The content-addressed identity of one job spec.

    Canonical JSON makes semantically equal specs hash equal regardless
    of dict construction order — submitting the same sweep twice yields
    the same id, which is how duplicate submissions dedup to a single
    execution.
    """
    body = {"job-schema": JOB_SCHEMA_VERSION, "spec": spec}
    digest = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
    return digest[:_JOB_ID_HEX_CHARS]


_CREATE = (
    """CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    spec             TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'queued',
    submitted_at     REAL NOT NULL,
    eligible_at      REAL NOT NULL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_expires_at REAL,
    result           TEXT,
    error            TEXT,
    completions      INTEGER NOT NULL DEFAULT 0,
    completed_by     TEXT,
    updated_at       REAL NOT NULL
)""",
    "CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, eligible_at)",
    "CREATE TABLE IF NOT EXISTS meta "
    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)",
)

_COLUMNS = (
    "id", "spec", "state", "submitted_at", "eligible_at", "attempts",
    "lease_owner", "lease_expires_at", "result", "error",
    "completions", "completed_by", "updated_at",
)


def _row_to_job(row: Tuple[Any, ...]) -> Dict[str, Any]:
    job = dict(zip(_COLUMNS, row))
    job["spec"] = json.loads(job["spec"])
    return job


#: the table's transactional operations, each bracketed by a pre-commit
#: and a post-commit crash point.  The scenario tag tells the crash
#: matrix which script reaches the point (docs/crashtest.md).
_OPS = {
    "submit": "success",
    "claim": "success",
    "heartbeat": "success",
    "complete": "success",
    "fail": "failure",
    "release": "preempt",
    "requeue": "reaper",
}

for _op, _scenario in _OPS.items():
    register = crashpoints.register_crashpoint
    register(
        f"jobs.{_op}.pre-commit",
        f"inside the {_op} transaction, before COMMIT — the operation "
        "must be invisible after a crash here",
        actions=("kill", "raise-operational", "raise-oserror"),
        scenario=_scenario,
    )
    register(
        f"jobs.{_op}.post-commit",
        f"immediately after the {_op} transaction committed — the "
        "operation is durable but its caller never learns the outcome",
        actions=("kill", "raise-operational", "raise-oserror"),
        scenario=_scenario,
    )


class JobTable:
    """One service's durable job queue.

    Safe for concurrent use from many threads *and* many processes:
    every operation runs on a connection of its own, checked out of the
    table's pool (WAL mode, busy timeout), and writes inside a single
    transaction — retried under capped backoff when SQLite reports the
    database locked — so the HTTP app, the reaper thread and N worker
    processes across several hosts can hammer the same file.  Call
    :meth:`close` when done with the table.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        lease_s: float = 30.0,
        retry_budget: int = 2,
        max_queued: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ):
        if lease_s <= 0:
            raise ServiceError(f"lease_s must be positive, got {lease_s}", kind="spec")
        if retry_budget < 0:
            raise ServiceError(
                f"retry_budget must be >= 0, got {retry_budget}", kind="spec"
            )
        if max_queued is not None and max_queued < 1:
            raise ServiceError(
                f"max_queued must be >= 1, got {max_queued}", kind="spec"
            )
        self.path = Path(path)
        self.lease_s = lease_s
        self.retry_budget = retry_budget
        self.max_queued = max_queued
        self.clock = crashpoints.skewed_clock(clock)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: idle connections, owned by process ``_pool_pid``.
        self._idle: List[sqlite3.Connection] = []
        self._pool_pid = os.getpid()
        #: connections a forked child inherited: kept referenced so they
        #: are never used or closed from the child.
        self._inherited: List[sqlite3.Connection] = []
        self._init_db()

    # -- connection plumbing -------------------------------------------------

    def _pool(self) -> List[sqlite3.Connection]:
        """This process's idle connections.

        A forked child (the worker's process pool) must neither use nor
        close a connection its parent opened, so on the first operation
        in a new pid the inherited ones are set aside and the pool
        starts empty.
        """
        pid = os.getpid()
        if pid != self._pool_pid:
            self._inherited.extend(self._idle)
            self._idle = []
            self._pool_pid = pid
        return self._idle

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=30.0, isolation_level=None,
            check_same_thread=False,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
        except BaseException:
            conn.close()
            raise
        return conn

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """Check a connection out of the pool for one operation.

        It goes back to the pool when the block ends cleanly; any
        exception closes it instead, so the next operation (a lock
        retry included) starts on a fresh connection.
        """
        try:
            conn = self._pool().pop()
        except IndexError:
            conn = self._open()
        try:
            yield conn
        except BaseException:
            conn.close()
            raise
        self._pool().append(conn)

    def _select(
        self, sql: str, params: Tuple[Any, ...] = ()
    ) -> List[Tuple[Any, ...]]:
        """Every row of one read statement, stepped to completion so the
        pooled connection keeps no read snapshot open afterwards."""
        with self._connect() as conn:
            return conn.execute(sql, params).fetchall()

    def close(self) -> None:
        """Close this process's idle connections.

        The table stays usable: a later operation opens a new
        connection.  Connections checked out by an operation still
        running on another thread go back to the pool as usual.
        """
        idle, self._idle = self._pool(), []
        for conn in idle:
            conn.close()

    @staticmethod
    def _is_locked(exc: sqlite3.OperationalError) -> bool:
        text = str(exc).lower()
        return "database is locked" in text or "database table is locked" in text

    def _transact(
        self, op: Optional[str], body: Callable[[sqlite3.Connection], _T]
    ) -> _T:
        """Run ``body`` in one ``BEGIN IMMEDIATE`` transaction.

        ``OperationalError: database is locked`` rolls back and retries
        the whole transaction under capped exponential backoff
        (``LOCK_RETRY_BASE_S * 2**attempt``, capped at
        ``LOCK_RETRY_CAP_S``, at most ``LOCK_RETRIES`` retries) — the
        multi-host contention path.  Any other error propagates after
        rollback.  The ``jobs.<op>.pre-commit`` crash point fires just
        before COMMIT (a crash there must make the operation
        invisible); ``jobs.<op>.post-commit`` fires after the loop
        exits successfully (the operation is durable, the caller never
        hears back).  ``op=None`` (schema init) fires no points, so hit
        counting starts at the first real operation.
        """
        attempt = 0
        while True:
            try:
                with self._connect() as conn:
                    conn.execute("BEGIN IMMEDIATE")
                    try:
                        out = body(conn)
                        if op is not None:
                            crashpoints.fire(f"jobs.{op}.pre-commit")
                        conn.execute("COMMIT")
                    except BaseException:
                        with suppress(sqlite3.OperationalError):
                            conn.execute("ROLLBACK")
                        raise
                break
            except sqlite3.OperationalError as exc:
                if not self._is_locked(exc) or attempt >= LOCK_RETRIES:
                    raise
                time.sleep(min(LOCK_RETRY_BASE_S * 2**attempt, LOCK_RETRY_CAP_S))
                attempt += 1
        if op is not None:
            crashpoints.fire(f"jobs.{op}.post-commit")
        return out

    def _init_db(self) -> None:
        def body(conn: sqlite3.Connection) -> None:
            for statement in _CREATE:
                conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM meta WHERE key='job-schema'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('job-schema', ?)",
                    (str(JOB_SCHEMA_VERSION),),
                )
            elif row[0] != str(JOB_SCHEMA_VERSION):
                raise ServiceError(
                    f"job table {self.path} has schema {row[0]}; this "
                    f"build writes version {JOB_SCHEMA_VERSION}",
                    kind="protocol",
                )

        self._transact(None, body)

    # -- submission ----------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Enqueue a spec; returns ``(job, created)``.

        Content-addressed dedup: resubmitting a spec whose job already
        exists (in *any* state) returns the existing row untouched with
        ``created=False`` — a finished job's result is served without
        re-execution, exactly like a result-cache hit.

        A full queue (``max_queued`` jobs already ``queued``) refuses
        *new* work with a typed :class:`~repro.errors.ServiceError`
        (``kind="queue-full"``) — the HTTP app maps this to 429.  Dedup
        hits are never refused: they cost no execution.
        """
        job_id = job_id_for(spec)
        now = self.clock()

        def body(conn: sqlite3.Connection) -> Optional[Dict[str, Any]]:
            row = conn.execute(
                f"SELECT {','.join(_COLUMNS)} FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if row is not None:
                return _row_to_job(row)
            if self.max_queued is not None:
                queued = conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state='queued'"
                ).fetchone()[0]
                if queued >= self.max_queued:
                    raise ServiceError(
                        f"queue is full ({queued}/{self.max_queued} jobs "
                        "queued); retry after backing off",
                        kind="queue-full",
                    )
            conn.execute(
                "INSERT INTO jobs (id, spec, state, submitted_at, "
                "eligible_at, attempts, updated_at) "
                "VALUES (?, ?, 'queued', ?, ?, 0, ?)",
                (job_id, canonical_json(spec), now, now, now),
            )
            return None

        existing = self._transact("submit", body)
        if existing is not None:
            return existing, False
        job = self.get(job_id)
        assert job is not None
        return job, True

    # -- worker-side lease lifecycle -----------------------------------------

    def claim(self, owner: str) -> Optional[Dict[str, Any]]:
        """Lease the oldest eligible queued job to ``owner``.

        Returns the claimed job row, or ``None`` when nothing is
        eligible.  The claim, the owner stamp, the attempt increment
        and the lease deadline are one transaction, so two workers can
        never lease the same job.
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> Optional[Tuple[Any, ...]]:
            row = conn.execute(
                "SELECT id FROM jobs WHERE state='queued' AND eligible_at<=? "
                "ORDER BY submitted_at, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            job_id = row[0]
            conn.execute(
                "UPDATE jobs SET state='leased', lease_owner=?, "
                "lease_expires_at=?, attempts=attempts+1, updated_at=? "
                "WHERE id=?",
                (owner, now + self.lease_s, now, job_id),
            )
            full = conn.execute(
                f"SELECT {','.join(_COLUMNS)} FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            return full

        full = self._transact("claim", body)
        return _row_to_job(full) if full is not None else None

    def heartbeat(self, job_id: str, owner: str) -> bool:
        """Extend ``owner``'s lease; returns False when the lease is gone.

        A heartbeat arriving **exactly at** the lease deadline is
        refused: expiry is inclusive (``lease_expires_at <= now`` makes
        the lease reapable), so the instant the deadline passes there is
        exactly one authority — the reaper — regardless of which of the
        two observes the clock first.  A worker whose heartbeat is
        refused must stop trusting its lease (its ``complete`` would be
        rejected anyway once the reaper requeues the job).
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> int:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires_at=?, updated_at=? "
                "WHERE id=? AND state='leased' AND lease_owner=? "
                "AND lease_expires_at>?",
                (now + self.lease_s, now, job_id, owner, now),
            )
            return cur.rowcount

        return self._transact("heartbeat", body) == 1

    def complete(self, job_id: str, owner: str, result_text: str) -> bool:
        """Store a result and mark the job done — iff ``owner`` still
        holds the lease.

        Returns False when the lease was lost (the reaper requeued the
        job, or another worker now owns it): the late result is
        discarded.  Because every job is a deterministic, journaled
        sweep, the discarded result and the rerun's result are
        byte-identical — rejection costs nothing but keeps the
        protocol single-writer.

        A successful complete stamps ``completed_by = owner`` and
        increments ``completions``: after any crash campaign, a done
        job must show exactly one completion, by exactly one owner —
        the recorded proof of the no-double-completion invariant.

        A worker *may* complete after its deadline passed, as long as
        the reaper has not yet acted: the lease row is still owned, the
        work is done, and accepting it beats re-running.  The
        reaper-vs-late-result race therefore commutes — whichever side
        commits first wins, and both outcomes are valid.
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> int:
            cur = conn.execute(
                "UPDATE jobs SET state='done', result=?, lease_owner=NULL, "
                "lease_expires_at=NULL, completions=completions+1, "
                "completed_by=?, updated_at=? "
                "WHERE id=? AND state='leased' AND lease_owner=?",
                (result_text, owner, now, job_id, owner),
            )
            return cur.rowcount

        return self._transact("complete", body) == 1

    def fail(self, job_id: str, owner: str, error_text: str) -> bool:
        """Mark the job failed with a serialized ``job-failure`` envelope.

        Used by workers for *deterministic* errors (the spec's
        execution raised a typed ``ReproError``): retrying a
        deterministic failure re-buys the same failure, so it is
        terminal immediately.  Lease-conditional like :meth:`complete`.
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> int:
            cur = conn.execute(
                "UPDATE jobs SET state='failed', error=?, lease_owner=NULL, "
                "lease_expires_at=NULL, updated_at=? "
                "WHERE id=? AND state='leased' AND lease_owner=?",
                (error_text, now, job_id, owner),
            )
            return cur.rowcount

        return self._transact("fail", body) == 1

    def release(self, job_id: str, owner: str) -> bool:
        """Hand a leased job back uncharged (graceful preemption).

        A draining worker that was told to stop mid-sweep journaled its
        completed cells, so the rerun only pays for the remainder; the
        attempt is refunded because a deliberate preemption is not a
        failure and must not eat into the retry budget.
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> int:
            cur = conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL, "
                "lease_expires_at=NULL, attempts=attempts-1, "
                "eligible_at=?, updated_at=? "
                "WHERE id=? AND state='leased' AND lease_owner=?",
                (now, now, job_id, owner),
            )
            return cur.rowcount

        return self._transact("release", body) == 1

    # -- reaper-side recovery ------------------------------------------------

    def requeue_expired(self) -> Tuple[List[str], List[str]]:
        """Recover every expired lease; returns ``(requeued, failed)`` ids.

        An expired lease means its worker died (SIGKILL, OOM) or hung
        past the heartbeat: the job goes back to ``queued`` with an
        exponential-backoff eligibility delay scaled to the lease —
        ``lease_s / 30 * 2**(attempts-1)``, capped at ``2 * lease_s`` —
        so a crash-looping spec cannot hot-spin a worker.  Once
        ``attempts > retry_budget + 1`` executions would be needed, the
        job is instead marked ``failed`` with a typed ``job-failure``
        envelope recording the attempt history.
        """
        now = self.clock()

        def body(conn: sqlite3.Connection) -> Tuple[List[str], List[str]]:
            requeued: List[str] = []
            failed: List[str] = []
            rows = conn.execute(
                "SELECT id, attempts FROM jobs "
                "WHERE state='leased' AND lease_expires_at<=?",
                (now,),
            ).fetchall()
            for job_id, attempts in rows:
                if attempts > self.retry_budget:
                    envelope = dump_job_failure(
                        "LeaseRetryExhausted",
                        f"lease expired on all {attempts} attempt(s) "
                        f"(retry budget {self.retry_budget}); the worker "
                        "died or hung every time",
                        job_id=job_id,
                        attempts=attempts,
                    )
                    conn.execute(
                        "UPDATE jobs SET state='failed', error=?, "
                        "lease_owner=NULL, lease_expires_at=NULL, "
                        "updated_at=? WHERE id=?",
                        (envelope, now, job_id),
                    )
                    failed.append(job_id)
                else:
                    delay = min(
                        self.lease_s / 30 * 2 ** (attempts - 1),
                        2 * self.lease_s,
                    )
                    conn.execute(
                        "UPDATE jobs SET state='queued', lease_owner=NULL, "
                        "lease_expires_at=NULL, eligible_at=?, updated_at=? "
                        "WHERE id=?",
                        (now + delay, now, job_id),
                    )
                    requeued.append(job_id)
            return requeued, failed

        return self._transact("requeue", body)

    # -- inspection ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Fetch one job row as a dict (spec decoded), or ``None``."""
        rows = self._select(
            f"SELECT {','.join(_COLUMNS)} FROM jobs WHERE id=?", (job_id,)
        )
        return _row_to_job(rows[0]) if rows else None

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Every job row, oldest submission first."""
        rows = self._select(
            f"SELECT {','.join(_COLUMNS)} FROM jobs ORDER BY submitted_at, id"
        )
        return [_row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every known state (zeros included)."""
        from repro.serialization import JOB_STATES

        out = {state: 0 for state in JOB_STATES}
        for state, count in self._select(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            out[state] = count
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobTable(path={str(self.path)!r}, lease_s={self.lease_s})"
