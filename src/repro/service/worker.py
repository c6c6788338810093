"""The pull-based worker: claim → heartbeat → execute → complete.

One worker is one OS process (``python -m repro.service.worker_main``),
so
the chaos menu applies to it directly: SIGKILL is survivable (the lease
expires, the reaper requeues, the journal makes the rerun
byte-identical), SIGTERM is graceful (the executor drains in-flight
cells to the journal, the worker hands the job back uncharged via
:meth:`~repro.service.jobs.JobTable.release`).

The heartbeat runs on a daemon thread at a third of the lease period.
A refused heartbeat means the lease is gone — the worker finishes the
sweep (the work is journaled either way) but its ``complete`` will be
rejected by the lease-conditional update; the requeued attempt replays
the journal, so nothing is lost and nothing is double-counted.

Execution failures split by recoverability:

* a typed :class:`~repro.errors.ReproError` from the runner is
  *deterministic* — retrying re-buys the same failure — so the job is
  marked ``failed`` immediately with a ``job-failure`` envelope;
* an :class:`~repro.errors.InterruptedSweepError` (SIGTERM drain) hands
  the job back uncharged;
* any *other* exception is an **infrastructure** failure (an I/O error,
  a database hiccup past its retry loop, an injected fault): retrying
  may well succeed, so the worker must NOT burn the job's ``failed``
  state on it — it re-raises and lets the process die, which is
  indistinguishable from a crash: the lease expires, the reaper
  requeues, the retry budget bounds a crash-looping host;
* a crash (SIGKILL, OOM) never reaches this code at all — that is what
  the lease + reaper recover.

For multi-host proofs the owner string's host part and the table clock
are injectable (``--host-label``, ``--clock-skew-s``): the crash matrix
runs ≥2 "hosts" against one service directory from a single machine,
with one host's clock deliberately wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.errors import InterruptedSweepError, ReproError
from repro.faults import crashpoints
from repro.serialization import dump_job_failure
from repro.service.jobs import JobTable
from repro.service.runners import execute_spec, validate_spec

__all__ = ["Worker", "default_owner", "main"]

_HEARTBEAT_POINT = crashpoints.register_crashpoint(
    "worker.heartbeat",
    "inside the heartbeat loop, before the lease-extension update — a "
    "dead heartbeat must cost the lease (and only the lease)",
    actions=("kill", "raise-oserror"),
    scenario="success",
)


def default_owner(host_label: Optional[str] = None) -> str:
    """``worker-<pid>@<host>`` — the pid is parseable, so a chaos test
    (or an operator) can SIGKILL the worker that owns a lease, and the
    host part names which (possibly simulated) host holds it."""
    return f"worker-{os.getpid()}@{host_label or socket.gethostname()}"


class Worker:
    """One pull loop against one job table.

    Parameters mirror the service knobs: ``poll_s`` is the idle sleep
    between empty claims, ``jobs`` is the executor fan-out *inside* one
    sweep (the service-level parallelism is the worker count).
    """

    def __init__(
        self,
        table: JobTable,
        *,
        service_dir: Union[str, Path],
        owner: Optional[str] = None,
        jobs: int = 1,
        poll_s: float = 0.5,
        use_cache: bool = False,
    ):
        self.table = table
        self.service_dir = Path(service_dir)
        self.owner = owner or default_owner()
        self.jobs = jobs
        self.poll_s = poll_s
        self.use_cache = use_cache
        #: completions the lease-conditional update rejected (lease was
        #: reaped while we were still running — the rerun wins).
        self.stale_results = 0
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit after the current job."""
        self._stop.set()

    def run_once(self) -> bool:
        """Claim and execute at most one job; returns True if one ran."""
        job = self.table.claim(self.owner)
        if job is None:
            return False
        self._execute(job)
        return True

    def run_forever(self) -> None:
        """Pull until :meth:`stop` (or a SIGTERM handler) is called."""
        while not self._stop.is_set():
            if not self.run_once():
                self._stop.wait(self.poll_s)

    # -- one job -------------------------------------------------------------

    def _execute(self, job: dict) -> None:
        job_id = job["id"]
        beat = _HeartbeatThread(self.table, job_id, self.owner)
        beat.start()
        try:
            result_text = execute_spec(
                job["spec"],
                journal_dir=self.service_dir / "journal",
                cache_dir=(self.service_dir / "cache") if self.use_cache else None,
                jobs=self.jobs,
            )
        except InterruptedSweepError:
            # Graceful preemption: cells are journaled, hand it back
            # uncharged and let the next worker resume the remainder.
            beat.stop()
            self.table.release(job_id, self.owner)
            self._stop.set()
            return
        except ReproError as exc:
            beat.stop()
            envelope = dump_job_failure(
                type(exc).__name__,
                str(exc),
                job_id=job_id,
                attempts=job["attempts"],
            )
            if not self.table.fail(job_id, self.owner, envelope):
                self.stale_results += 1
            return
        except Exception:
            # Infrastructure failure (I/O, database, injected fault):
            # retrying may succeed, so do NOT mark the job failed —
            # die like a crash would and let the lease + reaper + retry
            # budget decide.  Only a typed ReproError (deterministic)
            # is terminal on first sight.
            beat.stop()
            raise
        beat.stop()
        if not self.table.complete(job_id, self.owner, result_text):
            self.stale_results += 1


class _HeartbeatThread(threading.Thread):
    """Extend one lease every ``lease_s / 3`` until stopped.

    Daemonized so a wedged sweep cannot keep the process alive past a
    SIGTERM; a refused heartbeat stops the thread (the lease is gone,
    further beats are noise).
    """

    def __init__(self, table: JobTable, job_id: str, owner: str):
        super().__init__(daemon=True, name=f"heartbeat-{job_id}")
        self.table = table
        self.job_id = job_id
        self.owner = owner
        self.lost = False
        self._stop = threading.Event()

    def run(self) -> None:
        interval = max(self.table.lease_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            crashpoints.fire(_HEARTBEAT_POINT)
            if not self.table.heartbeat(self.job_id, self.owner):
                self.lost = True
                return

    def stop(self) -> None:
        self._stop.set()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for one worker process (spawned by ``repro serve``).

    The extra knobs exist for the crash matrix and multi-host proofs:
    ``--host-label`` simulates a distinct host in the owner string,
    ``--clock-skew-s`` runs this process's table clock fast (positive)
    or slow (negative) against the fleet, ``--submit-spec`` lets the
    armed victim process perform the submission itself (so the submit
    crash points are reachable), and ``--reap-once`` runs a single
    reaper sweep instead of a pull loop (so reaper crash points fire in
    a killable subprocess, not inside the harness).
    """
    parser = argparse.ArgumentParser(prog="repro-service-worker")
    parser.add_argument("--service-dir", required=True)
    parser.add_argument("--lease-s", type=float, default=30.0)
    parser.add_argument("--retry-budget", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--poll-s", type=float, default=0.5)
    parser.add_argument("--cache", action="store_true")
    parser.add_argument(
        "--once", action="store_true",
        help="exit after at most one job (tests)",
    )
    parser.add_argument(
        "--once-timeout-s", type=float, default=30.0,
        help="give up waiting for a claimable job after this long "
        "(with --once)",
    )
    parser.add_argument(
        "--host-label", default=None,
        help="host part of the owner string (default: the real "
        "hostname) — lets one machine simulate a multi-host fleet",
    )
    parser.add_argument(
        "--clock-skew-s", type=float, default=0.0,
        help="run this process's table clock this many seconds ahead "
        "(negative: behind) of the shared wall clock",
    )
    parser.add_argument(
        "--submit-spec", default=None, metavar="JSON",
        help="submit this job spec (JSON) before pulling — dedup makes "
        "it idempotent",
    )
    parser.add_argument(
        "--reap-once", action="store_true",
        help="run one reaper sweep and exit instead of pulling jobs",
    )
    args = parser.parse_args(argv)

    service_dir = Path(args.service_dir)
    clock: Callable[[], float] = time.time
    if args.clock_skew_s:
        clock = crashpoints.skewed_clock(time.time, args.clock_skew_s)
    table = JobTable(
        service_dir / "jobs.sqlite3",
        lease_s=args.lease_s,
        retry_budget=args.retry_budget,
        clock=clock,
    )

    try:
        _serve(table, service_dir, args)
    finally:
        table.close()
    return 0


def _serve(table: JobTable, service_dir: Path, args: argparse.Namespace) -> None:
    """Submit, reap or pull jobs as :func:`main`'s flags say."""
    if args.submit_spec is not None:
        table.submit(validate_spec(json.loads(args.submit_spec)))

    if args.reap_once:
        from repro.service.reaper import Reaper

        Reaper(table).sweep()
        return

    worker = Worker(
        table,
        service_dir=service_dir,
        owner=default_owner(args.host_label),
        jobs=args.jobs,
        poll_s=args.poll_s,
        use_cache=args.cache,
    )

    def _sigterm(signum: int, frame: object) -> None:
        # The executor's own SIGTERM supervision drains the in-flight
        # sweep to the journal and raises InterruptedSweepError, which
        # _execute turns into an uncharged release.  This handler only
        # covers the idle window between jobs.
        worker.stop()

    signal.signal(signal.SIGTERM, _sigterm)
    if args.once:
        deadline = time.monotonic() + args.once_timeout_s
        while time.monotonic() < deadline:
            if worker.run_once():
                break
            time.sleep(args.poll_s)
    else:
        worker.run_forever()


if __name__ == "__main__":  # pragma: no cover - use worker_main instead
    raise SystemExit(main())
