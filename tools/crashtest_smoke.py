#!/usr/bin/env python
"""CI smoke: lease takeover across hosts, proven on a live fleet.

The crash matrix (``repro crashtest``, docs/crashtest.md) proves every
registered crash point recovers with a staged victim/survivor pair per
scenario.  This smoke is the unstaged version of its central claim: two
workers on *different simulated hosts* race for one job, the host that
wins the lease is SIGKILLed mid-sweep, and the surviving host must
finish the work — byte-identically.

1. submit one multi-second algorithm sweep (bitonic sort over the
   Fig. 13 block counts) to a fresh service directory;
2. start two workers against it with distinct ``--host-label`` values
   (``hostA``/``hostB``) — their owner strings are
   ``worker-<pid>@<host>``, so the job row names the leaseholder;
3. wait until the job is leased and its journal holds a completed
   cell, parse the owner, **SIGKILL that worker** (the pid is in the
   owner string by design);
4. drive the reaper path (``requeue_expired``) until the lease expires
   and the job is requeued, then wait for the survivor to finish it;
5. assert the completion is stamped by the *other* host, exactly once
   (schema-2 ``completions`` == 1), re-attempted (``attempts`` >= 2),
   and the stored envelope is byte-identical to an undisturbed serial
   run computed in this process.

Exit 0 on success, 1 with a diagnostic on any violated contract.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.service.jobs import JobTable, job_id_for  # noqa: E402
from repro.service.runners import execute_spec, validate_spec  # noqa: E402

#: several seconds of work on 2 vCPUs, in about 60 ms cells, so the
#: leaseholder is killed mid-sweep.  (A fig11 sweep is fast-forwarded
#: past its steady state and finishes in under a second at any round
#: count.)
SPEC = {"experiment": "algorithm-sweep", "params": {"algorithm": "bitonic"}}
LEASE_S = 2.0
HOSTS = ("hostA", "hostB")


def journaled_cells(service_dir: Path) -> int:
    """Completed cells the workers' journals record (header excluded)."""
    lines = 0
    for path in (service_dir / "journal").glob("*/journal.jsonl"):
        with open(path, "rb") as handle:
            lines += max(handle.read().count(b"\n") - 1, 0)
    return lines


def start_worker(service_dir: Path, host: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.worker_main",
            "--service-dir", str(service_dir),
            "--lease-s", str(LEASE_S),
            "--retry-budget", "3",
            "--poll-s", "0.05",
            "--once",
            "--once-timeout-s", "60",
            "--host-label", host,
        ],
        env=env,
        cwd=str(service_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    spec = validate_spec(SPEC)
    job_id = job_id_for(spec)
    with tempfile.TemporaryDirectory(prefix="crashtest-smoke-") as tmp:
        service_dir = Path(tmp)
        print("computing undisturbed reference envelope ...")
        reference = execute_spec(
            spec, journal_dir=service_dir / "reference-journal", jobs=1
        )
        table = JobTable(
            service_dir / "jobs.sqlite3", lease_s=LEASE_S, retry_budget=3
        )
        table.submit(spec)
        workers = {host: start_worker(service_dir, host) for host in HOSTS}
        try:
            # -- who won the lease? ------------------------------------
            owner = ""
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                job = table.get(job_id)
                if job and job["state"] == "leased":
                    owner = str(job["lease_owner"])
                    break
                time.sleep(0.05)
            if "@" not in owner:
                fail(f"job was never leased (owner {owner!r})")
            pid_part, _, victim_host = owner.partition("@")
            victim_pid = int(pid_part.removeprefix("worker-"))
            survivor_host = next(h for h in HOSTS if h != victim_host)
            if workers[victim_host].pid != victim_pid:
                fail(
                    f"owner {owner!r} names pid {victim_pid}, but "
                    f"{victim_host}'s worker is {workers[victim_host].pid}"
                )
            # Let the sweep journal real progress before the crash.
            deadline = time.monotonic() + 30.0
            while journaled_cells(service_dir) < 1:
                if time.monotonic() > deadline:
                    fail("the leaseholder journaled no cell within 30 s")
                time.sleep(0.02)
            print(f"killing leaseholder {owner!r} (SIGKILL) ...")
            os.kill(victim_pid, signal.SIGKILL)
            workers[victim_host].wait()

            # -- recovery: reap the lease, let the survivor take over --
            job = None
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                job = table.get(job_id)
                if job and job["state"] in ("done", "failed"):
                    break
                table.requeue_expired()
                time.sleep(0.1)
            if job is None or job["state"] != "done":
                state = job["state"] if job else "missing"
                fail(f"job never completed after takeover (state {state!r})")
        finally:
            for proc in workers.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            table.close()

        completed_by = str(job["completed_by"] or "")
        if not completed_by.endswith(f"@{survivor_host}"):
            fail(
                f"no takeover: completion stamped {completed_by!r}, "
                f"expected the surviving host {survivor_host!r}"
            )
        if job["completions"] != 1:
            fail(f"completions={job['completions']} (want exactly 1)")
        if job["attempts"] < 2:
            fail(f"attempts={job['attempts']} (want >= 2: a real requeue)")
        if job["result"] != reference:
            fail(
                "recovered envelope is not byte-identical to the "
                f"undisturbed run ({len(str(job['result'] or ''))} vs "
                f"{len(reference)} bytes)"
            )
        print(
            f"OK: {owner!r} killed mid-sweep; {completed_by!r} completed "
            f"attempt {job['attempts']} byte-identically "
            f"({len(reference)} bytes)"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
