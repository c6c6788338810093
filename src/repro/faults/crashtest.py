"""The crash matrix: every registered crash point, proven recoverable.

:mod:`repro.faults.crashpoints` names the places where the durability
layer could lose or duplicate work; this module is the proof obligation
that comes with each name.  :func:`crash_campaign` enumerates every
registered point × every action the point supports and, for each,
stages a **live** service directory with a real worker fleet:

* the *victim* — a worker subprocess on simulated host ``hostA``
  (``--host-label``), armed via the ``REPRO_CRASHPOINTS`` environment
  variable to crash or fault at exactly the planned point;
* the *survivor* — a second, unarmed worker on host ``hostB`` sharing
  the same service directory (distinct ``worker-<pid>@<host>`` owners:
  the ≥2-host configuration ROADMAP item 2 calls for), spawned by the
  recovery loop to take over whatever the victim left behind.

The scenario script is chosen by the point's registered tag: a plain
completing job (``success``), a deterministically failing job
(``failure``), a SIGTERM drain mid-sweep (``preempt``), an
expired-lease sweep run by an armed ``--reap-once`` subprocess
(``reaper``), or a journal replay after an earlier interrupted attempt
(``resume``).  A skew campaign then re-runs a lease-critical subset
with the victim's clock deliberately wrong by more than the heartbeat
period in both directions.

After every crash the harness drives recovery exactly the way
production does — reaper sweeps plus a fresh worker — and asserts the
recovery invariants:

1. **no job lost** — the submitted job reaches a terminal state;
2. **no double completion** — the schema-2 ``completions`` counter
   reads exactly 1 (0 for the failure scenario) and ``completed_by``
   names exactly one owner;
3. **takeover** — when the victim was killed before it could complete,
   the completion is stamped by the surviving host;
4. **byte-identity** — the stored result envelope equals an
   undisturbed in-process serial run of the same spec, byte for byte
   (failure envelopes compare by error type instead: the attempt count
   they embed legitimately differs after a crash-induced retry).

A kill that was planned but provably never fired (no process died of
SIGKILL) fails the scenario — a matrix that silently stops reaching
its points would otherwise stay green while testing nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.errors import FaultError, ReproError
from repro.faults import crashpoints
from repro.faults.crashpoints import CRASHPOINTS, CrashPlan, CrashSpec

# Importing the instrumented modules populates the registry; the
# service imports are what make this module unsafe to import from
# ``repro.faults.__init__`` (it would cycle through the worker).
from repro.serialization import parse_job_failure
from repro.service import jobs as _jobs  # noqa: F401 - registers points
from repro.service import reaper as _reaper  # noqa: F401 - registers points
from repro.service import worker as _worker  # noqa: F401 - registers points
from repro.service.jobs import JobTable, job_id_for
from repro.service.runners import execute_spec, validate_spec

__all__ = [
    "CrashOutcome",
    "CrashTestReport",
    "DEFAULT_SPEC",
    "FAILING_SPEC",
    "HOST_A",
    "HOST_B",
    "PREEMPT_SPEC",
    "SKEW_POINTS",
    "crash_campaign",
]

#: the sweep every scenario runs: small enough for a tight matrix,
#: large enough to straddle heartbeats, journal appends and cache puts.
DEFAULT_SPEC: Dict[str, object] = {
    "experiment": "fig11",
    "params": {"rounds": 3},
}

#: a spec that validates (string-typed strategy) but deterministically
#: raises a typed ``ConfigError`` at execution — the ``failure``
#: scenario's vehicle for reaching the ``jobs.fail.*`` points.
FAILING_SPEC: Dict[str, object] = {
    "experiment": "sanitize",
    "params": {"strategy": "crashtest-no-such-strategy", "schedules": 2},
}

#: the preempt scenario's sweep: several seconds long, because the
#: SIGTERM must land *inside* the executor's drain guard (installed
#: once the sweep is underway) — against :data:`DEFAULT_SPEC` the
#: sweep can finish before the signal arrives and the graceful-release
#: path under test is never taken.
PREEMPT_SPEC: Dict[str, object] = {
    "experiment": "fig11",
    "params": {"rounds": 20},
}

HOST_A = "hostA"
HOST_B = "hostB"

#: the lease-critical subset the clock-skew campaign re-runs with the
#: victim's clock wrong by more than the heartbeat period (lease/3).
SKEW_POINTS: Tuple[str, ...] = (
    "jobs.heartbeat.pre-commit",
    "jobs.complete.pre-commit",
    "worker.heartbeat",
)

#: the only point whose victim can have completed the job before the
#: (post-commit) kill lands — everywhere else a killed victim proves
#: takeover: the completion must carry the survivor's host.
_VICTIM_MAY_COMPLETE = frozenset({"jobs.complete.post-commit"})

_Log = Callable[[str], None]


@dataclass
class CrashOutcome:
    """One (point, action, config) scenario's verdict."""

    point: str
    action: str
    scenario: str
    config: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    seconds: float = 0.0


@dataclass
class CrashTestReport:
    """The whole campaign: per-scenario outcomes plus budget accounting."""

    outcomes: List[CrashOutcome]
    budget_s: float
    elapsed_s: float

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "skip")

    @property
    def ok(self) -> bool:
        """Green means *every* scenario ran and passed — a skipped
        point (budget exhaustion) is a failure, not a footnote."""
        return self.failed == 0 and self.skipped == 0 and bool(self.outcomes)

    def render(self) -> str:
        """The per-point pass/fail table CI logs."""
        rows = [("POINT", "ACTION", "CONFIG", "STATUS", "SECS", "DETAIL")]
        for o in self.outcomes:
            rows.append(
                (
                    o.point,
                    o.action,
                    o.config,
                    o.status.upper(),
                    f"{o.seconds:.1f}",
                    o.detail,
                )
            )
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(rows[0]) - 1)
        ]
        lines = []
        for row in rows:
            cells = [row[col].ljust(widths[col]) for col in range(len(widths))]
            lines.append("  ".join(cells + [row[-1]]).rstrip())
        lines.append(
            f"crash matrix: {self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped in {self.elapsed_s:.1f}s "
            f"(budget {self.budget_s:.0f}s)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fleet plumbing
# ---------------------------------------------------------------------------


def _worker_cmd(
    service_dir: Path,
    *,
    lease_s: float,
    host: str,
    once_timeout_s: float,
    submit_spec: Optional[Dict[str, object]],
    reap_once: bool,
    clock_skew_s: float,
) -> List[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro.service.worker_main",
        "--service-dir",
        str(service_dir),
        "--lease-s",
        str(lease_s),
        "--retry-budget",
        "5",
        "--poll-s",
        "0.05",
        "--cache",
    ]
    if submit_spec is not None:
        cmd += ["--submit-spec", json.dumps(submit_spec)]
    if reap_once:
        cmd += ["--reap-once"]
    else:
        cmd += [
            "--once",
            "--once-timeout-s",
            str(once_timeout_s),
            "--host-label",
            host,
        ]
    if clock_skew_s:
        cmd += ["--clock-skew-s", str(clock_skew_s)]
    return cmd


def _spawn(
    service_dir: Path,
    *,
    lease_s: float,
    host: str = HOST_B,
    plan: Optional[CrashPlan] = None,
    submit_spec: Optional[Dict[str, object]] = None,
    reap_once: bool = False,
    once_timeout_s: float = 20.0,
    clock_skew_s: float = 0.0,
) -> "subprocess.Popen[bytes]":
    """Start one fleet process; ``plan`` arms it via the environment."""
    env = os.environ.copy()
    env.pop(crashpoints.ENV_VAR, None)
    if plan is not None:
        env[crashpoints.ENV_VAR] = plan.to_env()
    # The subprocess must resolve the same repro tree as this process,
    # wherever the harness was launched from.
    src_root = str(Path(repro.__file__).resolve().parents[1])
    parts = [src_root] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return subprocess.Popen(
        _worker_cmd(
            service_dir,
            lease_s=lease_s,
            host=host,
            once_timeout_s=once_timeout_s,
            submit_spec=submit_spec,
            reap_once=reap_once,
            clock_skew_s=clock_skew_s,
        ),
        env=env,
        cwd=str(service_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait(proc: "subprocess.Popen[bytes]", timeout_s: float) -> int:
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise FaultError(
            f"fleet process {proc.pid} exceeded its {timeout_s:.0f}s deadline"
        )


def _table(service_dir: Path, lease_s: float) -> JobTable:
    return JobTable(service_dir / "jobs.sqlite3", lease_s=lease_s, retry_budget=5)


def _recover(
    table: JobTable,
    spec: Dict[str, object],
    job_id: str,
    service_dir: Path,
    *,
    lease_s: float,
    deadline_s: float = 60.0,
) -> Optional[Dict[str, object]]:
    """Drive recovery the way production does, until terminal or timeout.

    Reaper sweeps requeue expired leases; a fresh survivor worker on
    ``hostB`` is (re)spawned whenever the job sits ``queued`` with no
    live worker.  A job row missing entirely (the victim died before
    its submit committed) is re-submitted — a submission whose caller
    never learned it committed is not "lost work", it is work that was
    never accepted.
    """
    survivor: Optional[subprocess.Popen[bytes]] = None
    deadline = time.monotonic() + deadline_s
    try:
        while time.monotonic() < deadline:
            job = table.get(job_id)
            if job is None:
                table.submit(spec)
                continue
            if job["state"] in ("done", "failed"):
                return job
            if job["state"] == "leased":
                # Either an orphan (requeue once expired) or the live
                # survivor (its heartbeats keep it unreapable).
                table.requeue_expired()
            elif job["state"] == "queued" and (
                survivor is None or survivor.poll() is not None
            ):
                survivor = _spawn(
                    service_dir, lease_s=lease_s, host=HOST_B
                )
            time.sleep(0.05)
        return None
    finally:
        if survivor is not None and survivor.poll() is None:
            survivor.kill()
            survivor.wait()


# ---------------------------------------------------------------------------
# Scenario scripts
# ---------------------------------------------------------------------------


def _poll_until(
    predicate: Callable[[], bool], timeout_s: float, what: str
) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise FaultError(f"timed out after {timeout_s:.0f}s waiting for {what}")


def _run_victim(
    service_dir: Path,
    plan: CrashPlan,
    spec: Dict[str, object],
    *,
    lease_s: float,
    clock_skew_s: float,
) -> int:
    """Success/failure scenarios: an armed victim submits and pulls."""
    victim = _spawn(
        service_dir,
        lease_s=lease_s,
        host=HOST_A,
        plan=plan,
        submit_spec=spec,
        clock_skew_s=clock_skew_s,
    )
    return _wait(victim, 45.0)


def _run_preempt_victim(
    service_dir: Path,
    table: JobTable,
    plan: CrashPlan,
    spec: Dict[str, object],
    job_id: str,
    *,
    lease_s: float,
    clock_skew_s: float,
) -> int:
    """Preempt scenario: SIGTERM the victim mid-sweep so its graceful
    release path crosses the armed ``jobs.release.*`` point."""
    victim = _spawn(
        service_dir,
        lease_s=lease_s,
        host=HOST_A,
        plan=plan,
        submit_spec=spec,
        clock_skew_s=clock_skew_s,
    )
    try:
        _poll_until(
            lambda: (table.get(job_id) or {}).get("state") == "leased"
            or victim.poll() is not None,
            20.0,
            f"job {job_id} to be leased",
        )
        # The claim precedes the executor's SIGINT/SIGTERM drain guard
        # by runner-import-and-setup time; a signal in that window only
        # sets the worker's idle stop flag and the sweep runs to
        # completion.  Half a second puts the SIGTERM well inside the
        # guarded (multi-second) PREEMPT_SPEC sweep.
        time.sleep(0.5)
        if victim.poll() is None:
            victim.send_signal(signal.SIGTERM)
        return _wait(victim, 45.0)
    except BaseException:
        if victim.poll() is None:
            victim.kill()
            victim.wait()
        raise


def _orphan_lease(
    service_dir: Path,
    table: JobTable,
    spec: Dict[str, object],
    job_id: str,
    orphan_point: str,
    *,
    lease_s: float,
    clock_skew_s: float,
) -> None:
    """Kill a throwaway victim at ``orphan_point`` to leave the job
    leased by a dead owner — the precondition of the reaper and resume
    scenarios — then wait for the lease to be reapable."""
    rc = _run_victim(
        service_dir,
        CrashPlan([CrashSpec(orphan_point, "kill")], clock_skew_s=clock_skew_s),
        spec,
        lease_s=lease_s,
        clock_skew_s=clock_skew_s,
    )
    if rc != -signal.SIGKILL:
        raise FaultError(
            f"orphan victim was supposed to die of SIGKILL at "
            f"{orphan_point}, exited {rc}"
        )
    _poll_until(
        lambda: (
            (table.get(job_id) or {}).get("state") == "leased"
            and (table.get(job_id) or {}).get("lease_expires_at", 1e18)
            <= time.time()
        ),
        30.0,
        f"the orphaned lease on {job_id} to expire",
    )


def _run_scenario(
    point_name: str,
    action: str,
    *,
    workdir: Path,
    config: str,
    lease_s: float,
    clock_skew_s: float,
    reference: str,
    failure_type: str,
) -> CrashOutcome:
    point = CRASHPOINTS[point_name]
    started = time.monotonic()
    service_dir = workdir / f"{point_name.replace('.', '-')}--{action}--{config}"
    shutil.rmtree(service_dir, ignore_errors=True)  # stale state from a retry
    service_dir.mkdir(parents=True, exist_ok=True)
    if point.scenario == "failure":
        spec = validate_spec(FAILING_SPEC)
    elif point.scenario == "preempt":
        spec = validate_spec(PREEMPT_SPEC)
    else:
        spec = validate_spec(DEFAULT_SPEC)
    job_id = job_id_for(spec)
    plan = CrashPlan([CrashSpec(point_name, action)], clock_skew_s=clock_skew_s)
    table = _table(service_dir, lease_s)
    problems: List[str] = []
    kill_proven = action != "kill"

    def saw_kill(rc: int) -> int:
        nonlocal kill_proven
        if rc == -signal.SIGKILL:
            kill_proven = True
        return rc

    try:
        if point.scenario in ("success", "failure"):
            # The victim performs the submission itself (--submit-spec),
            # so for the submit points the armed transaction is a real
            # INSERT, not a dedup read.
            if not point_name.startswith("jobs.submit."):
                table.submit(spec)
            saw_kill(
                _run_victim(
                    service_dir,
                    plan,
                    spec,
                    lease_s=lease_s,
                    clock_skew_s=clock_skew_s,
                )
            )
        elif point.scenario == "preempt":
            table.submit(spec)
            saw_kill(
                _run_preempt_victim(
                    service_dir,
                    table,
                    plan,
                    spec,
                    job_id,
                    lease_s=lease_s,
                    clock_skew_s=clock_skew_s,
                )
            )
        elif point.scenario == "reaper":
            table.submit(spec)
            _orphan_lease(
                service_dir,
                table,
                spec,
                job_id,
                "jobs.claim.post-commit",
                lease_s=lease_s,
                clock_skew_s=clock_skew_s,
            )
            saw_kill(
                _wait(
                    _spawn(
                        service_dir,
                        lease_s=lease_s,
                        plan=plan,
                        reap_once=True,
                        clock_skew_s=clock_skew_s,
                    ),
                    30.0,
                )
            )
        elif point.scenario == "resume":
            table.submit(spec)
            _orphan_lease(
                service_dir,
                table,
                spec,
                job_id,
                "journal.append",
                lease_s=lease_s,
                clock_skew_s=clock_skew_s,
            )
            table.requeue_expired()
            saw_kill(
                _run_victim(
                    service_dir,
                    plan,
                    spec,
                    lease_s=lease_s,
                    clock_skew_s=clock_skew_s,
                )
            )
        else:  # pragma: no cover - registry validation forbids it
            raise FaultError(f"unknown scenario {point.scenario!r}")

        job = _recover(
            table, spec, job_id, service_dir, lease_s=lease_s
        )
        if job is None:
            problems.append("job never reached a terminal state (lost)")
        else:
            problems.extend(
                _check_invariants(
                    job,
                    point_name,
                    action,
                    scenario=point.scenario,
                    reference=reference,
                    failure_type=failure_type,
                )
            )
        if not kill_proven:
            problems.append(
                "planned kill never fired (no process died of SIGKILL) — "
                "the scenario no longer reaches this point"
            )
    except (ReproError, OSError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        table.close()
    seconds = time.monotonic() - started
    if problems:
        return CrashOutcome(
            point_name,
            action,
            point.scenario,
            config,
            "fail",
            "; ".join(problems),
            seconds,
        )
    shutil.rmtree(service_dir, ignore_errors=True)
    return CrashOutcome(
        point_name, action, point.scenario, config, "pass", "", seconds
    )


def _check_invariants(
    job: Dict[str, object],
    point_name: str,
    action: str,
    *,
    scenario: str,
    reference: str,
    failure_type: str,
) -> List[str]:
    problems: List[str] = []
    if scenario == "failure":
        if job["state"] != "failed":
            problems.append(f"expected state 'failed', got {job['state']!r}")
        elif job["completions"] != 0:
            problems.append(
                f"failed job shows {job['completions']} completion(s)"
            )
        else:
            try:
                payload = parse_job_failure(
                    str(job["error"]), source=f"job {job['id']}"
                )
            except ReproError as exc:
                problems.append(f"unparsable failure envelope: {exc}")
            else:
                got = payload["error"]["type"]
                if got != failure_type:
                    problems.append(
                        f"expected failure type {failure_type!r}, got {got!r}"
                    )
        return problems
    if job["state"] != "done":
        problems.append(f"expected state 'done', got {job['state']!r}")
        return problems
    if job["completions"] != 1:
        problems.append(
            f"double-completion: completions={job['completions']} (want 1)"
        )
    completed_by = str(job["completed_by"] or "")
    if "@" not in completed_by:
        problems.append(f"missing completed_by owner, got {completed_by!r}")
    elif (
        action == "kill"
        and point_name not in _VICTIM_MAY_COMPLETE
        and not completed_by.endswith(f"@{HOST_B}")
    ):
        problems.append(
            f"no takeover: killed victim's host still completed "
            f"({completed_by!r})"
        )
    if job["result"] != reference:
        problems.append(
            "result envelope differs from the undisturbed serial run "
            f"({len(str(job['result'] or ''))} vs {len(reference)} bytes)"
        )
    return problems


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


def _reference_result(workdir: Path, spec: Dict[str, object], tag: str) -> str:
    """The undisturbed serial envelope every recovery must reproduce."""
    return execute_spec(
        validate_spec(spec),
        journal_dir=workdir / f"reference-journal-{tag}",
        jobs=1,
    )


def _reference_failure(workdir: Path) -> str:
    """The typed error the failure scenario deterministically buys."""
    try:
        execute_spec(
            validate_spec(FAILING_SPEC),
            journal_dir=workdir / "reference-failure-journal",
            jobs=1,
        )
    except ReproError as exc:
        return type(exc).__name__
    raise FaultError(
        "FAILING_SPEC unexpectedly succeeded; the failure scenario needs "
        "a spec that deterministically raises a ReproError"
    )


def crash_campaign(
    *,
    points: Optional[Sequence[str]] = None,
    actions: Optional[Sequence[str]] = None,
    budget_s: float = 900.0,
    lease_s: float = 1.0,
    skew_s: float = 0.6,
    workdir: Optional[Path] = None,
    log: Optional[_Log] = None,
) -> CrashTestReport:
    """Run the crash matrix; returns the full per-scenario report.

    The baseline pass covers every registered point × every supported
    action (filter with ``points``/``actions``); the skew pass re-runs
    :data:`SKEW_POINTS` kills with the victim's clock ``±skew_s``
    seconds wrong (default 0.6 s against a 1 s lease — more than the
    lease/3 heartbeat period in both directions).  ``budget_s`` bounds
    wall clock: scenarios that do not get to run are reported as
    ``skip`` and make the report not-:attr:`~CrashTestReport.ok`, so a
    starved matrix cannot pass silently.
    """
    say: _Log = log if log is not None else (lambda _msg: None)
    crashpoints.disarm()
    selected = sorted(points if points is not None else CRASHPOINTS)
    for name in selected:
        if name not in CRASHPOINTS:
            raise FaultError(
                f"unknown crash point {name!r}; known: "
                f"{', '.join(sorted(CRASHPOINTS))}"
            )
    if skew_s < 0:
        raise FaultError(f"skew_s must be >= 0, got {skew_s}")
    jobs_plan: List[Tuple[str, str, float, str]] = []
    for name in selected:
        for action in CRASHPOINTS[name].actions:
            if actions is not None and action not in actions:
                continue
            jobs_plan.append((name, action, 0.0, "baseline"))
    if skew_s:
        for name in SKEW_POINTS:
            if name not in selected:
                continue
            for direction in (skew_s, -skew_s):
                jobs_plan.append(
                    (name, "kill", direction, f"skew{direction:+.1f}s")
                )

    own_workdir = workdir is None
    root = Path(
        workdir if workdir is not None else tempfile.mkdtemp(prefix="crashtest-")
    )
    root.mkdir(parents=True, exist_ok=True)
    outcomes: List[CrashOutcome] = []
    started = time.monotonic()
    try:
        say(f"crash matrix: {len(jobs_plan)} scenario(s), budget {budget_s:.0f}s")
        # Only pay for the reference runs the selected scenarios need.
        needed = {CRASHPOINTS[name].scenario for name, _, _, _ in jobs_plan}
        references: Dict[str, str] = {}
        if needed - {"failure", "preempt"}:
            references[""] = _reference_result(root, DEFAULT_SPEC, "default")
        if "preempt" in needed:
            references["preempt"] = _reference_result(
                root, PREEMPT_SPEC, "preempt"
            )
        failure_type = (
            _reference_failure(root) if "failure" in needed else ""
        )
        for name, action, skew, config in jobs_plan:
            if time.monotonic() - started > budget_s:
                outcomes.append(
                    CrashOutcome(
                        name,
                        action,
                        CRASHPOINTS[name].scenario,
                        config,
                        "skip",
                        "wall-clock budget exhausted before this scenario",
                    )
                )
                continue
            scenario = CRASHPOINTS[name].scenario
            reference = references.get(
                scenario, references.get("", "")
            )
            outcome = _run_scenario(
                name,
                action,
                workdir=root,
                config=config,
                lease_s=lease_s,
                clock_skew_s=skew,
                reference=reference,
                failure_type=failure_type,
            )
            if outcome.status == "fail" and "never fired" in outcome.detail:
                # The one tolerated race: the victim finished before the
                # trigger (e.g. a SIGTERM that lost the claim race).
                # One clean retry; a second miss is a real finding.
                say(f"  RETRY {name} [{action}, {config}]: {outcome.detail}")
                outcome = _run_scenario(
                    name,
                    action,
                    workdir=root,
                    config=config,
                    lease_s=lease_s,
                    clock_skew_s=skew,
                    reference=reference,
                    failure_type=failure_type,
                )
            say(
                f"  {outcome.status.upper():4s} {name} [{action}, {config}] "
                f"({outcome.seconds:.1f}s)"
                + (f": {outcome.detail}" if outcome.detail else "")
            )
            outcomes.append(outcome)
    finally:
        if own_workdir:
            shutil.rmtree(root, ignore_errors=True)
    return CrashTestReport(
        outcomes=outcomes,
        budget_s=budget_s,
        elapsed_s=time.monotonic() - started,
    )
