"""The service round trip: submit -> result through the job table and a worker.

The job mix: distinct small sanitize and chaos campaigns seeded from the
benchmark seed, plus two low-round fig11 sweeps that push a few hundred
cells through the executor's journal and cache.  Every sanitize
campaign is later extended (same seed, more schedules), so its leading
cells are cache reads beside fresh writes, and every spec is
resubmitted once to take the dedup path.  One client, closed loop: the
next job is submitted when the previous result is in.

Two ways in, both through public classes:

* over HTTP: a :class:`ServiceApp` with one worker subprocess (result
  cache on, short poll interval) and a :class:`ServiceClient`.  This
  prices set-up (``setup_s``: cold start until the worker has finished
  a first job) and, in the traced run, each client call;
* in process: the :class:`JobTable` and :class:`Worker` the app and its
  worker process wrap, with ``Worker.run_once`` in place of the poll
  loop.  The timed loop and the profiled passes use this way: on a
  shared 2-vCPU host, the HTTP loop's latencies (polls, thread and
  process wake-ups) swing by 15-40 % between runs a minute apart, while
  the in-process loop, timed against :func:`clock.io_probe`, holds
  within a few percent.

The worker subprocess inherits the environment ``run.py`` pinned: the
reference engine and no armed crash points.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pstats
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import ResultCache
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient
from repro.service.jobs import JobTable
from repro.service.runners import execute_spec, validate_spec
from repro.service.worker import Worker
from repro.simcore import use_engine_mode

from clock import ScaledTimer, io_probe
from layers import call_count, per_layer_metrics, traced_run
from outcome import Outcome, median_per_position, percentiles_ms

#: the worker's idle sleep between empty claims, and the client's sleep
#: between status polls: short, so they add little to each latency.
WORKER_POLL_S = 0.002
CLIENT_POLL_S = 0.001
#: the io probe's duration on the reference host (see clock.py).
IO_PROBE_REF_S = 0.008
#: cold starts per timed run; setup_s is their median.
SETUPS = 5
#: share of --seconds the closed loop gets; the inline output check
#: (about as much simulation again, without the service) takes the rest.
LOOP_SHARE = 0.7
#: executed jobs a timed run makes at least, so ten lie beyond p90.
MIN_EXECUTED = 100
MIN_PASSES = 3
#: hard stop for the closed loop, whatever the minimums above.
LOOP_CAP_S = 90.0

STRATEGIES = ("gpu-lockfree", "gpu-simple", "gpu-tree-2", "gpu-tree-3")
#: run once per loop, before the passes; each is 210 cells.
FIG11_SPECS = [{"experiment": "fig11", "params": {"rounds": r}} for r in (1, 2)]
#: warms a cold worker (imports, first table transactions); its two
#: blocks keep it apart from every spec of the mix.
WARM_SPEC = {
    "experiment": "sanitize",
    "params": {"strategy": "gpu-simple", "schedules": 1, "seed": 0, "blocks": 2},
}

Spec = Dict[str, Any]


def _sanitize(strategy: str, seed: int, schedules: int, blocks: int) -> Spec:
    return {"experiment": "sanitize", "params": {
        "strategy": strategy, "schedules": schedules, "seed": seed, "blocks": blocks,
    }}


def _chaos(strategy: str, seed: int, plans: int, blocks: int) -> Spec:
    return {"experiment": "chaos", "params": {
        "strategy": strategy, "plans": plans, "seed": seed, "blocks": blocks,
    }}


def pass_specs(seed: int, index: int) -> List[Spec]:
    """The eight distinct specs of pass ``index``.

    Three two-schedule sanitize campaigns and two chaos campaigns, then
    the three sanitize campaigns extended to four schedules.
    """
    base = (seed * 1_000_003 + index * 16) % 2**31
    specs = [_sanitize(STRATEGIES[i], base + i, 2, 3 + i) for i in range(3)]
    specs += [_chaos(STRATEGIES[i + 1], base + 8 + i, 2, 4 + i) for i in range(2)]
    specs += [_sanitize(STRATEGIES[i], base + i, 4, 3 + i) for i in range(3)]
    return specs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the two ways in -------------------------------------------------------------

@dataclass
class Loop:
    """What one closed loop submitted and measured."""

    #: per group of specs (fig11 group first, then the passes): the
    #: executed specs with their result text.
    groups: List[List[Tuple[Spec, str]]] = field(default_factory=list)
    #: submit -> result scaled seconds of each executed job.
    latencies: List[float] = field(default_factory=list)
    #: per pass (the fig11 group excluded): each spec's round trip,
    #: then each resubmission's, in scaled seconds.
    pass_rows: List[List[float]] = field(default_factory=list)
    submissions: int = 0


class _Http:
    """Jobs through the HTTP app; records raw seconds per client call."""

    def __init__(self, client: ServiceClient):
        self.client = client
        self.calls: Dict[str, List[float]] = {
            "submit": [], "status": [], "result": [], "dedup": [],
        }
        self.status_polls = 0

    def _call(self, name: str, fn: Any, *args: Any) -> Any:
        start = time.perf_counter()
        value = fn(*args)
        self.calls[name].append(time.perf_counter() - start)
        return value

    def _result(self, status: Dict[str, Any]) -> Optional[str]:
        if status["state"] != "done":
            return None
        return self._call("result", self.client.result_text, status["id"])

    def new(self, spec: Spec) -> Tuple[bool, str, Optional[str]]:
        """Submit and wait: (created, job id, result text or None)."""
        status = self._call("submit", self.client.submit, spec)
        created = status["state"] not in ("done", "failed")
        while status["state"] not in ("done", "failed"):
            time.sleep(CLIENT_POLL_S)
            status = self._call("status", self.client.status, status["id"])
            self.status_polls += 1
        return created, status["id"], self._result(status)

    def again(self, spec: Spec) -> Tuple[str, Optional[str]]:
        """Resubmit a finished spec: (job id, result text or None)."""
        status = self._call("dedup", self.client.submit, spec)
        return status["id"], self._result(status)


class _InProcess:
    """Jobs through a job table and worker in this process."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True)
        self.directory = directory
        self.table = JobTable(directory / "jobs.sqlite3")
        self.worker = Worker(self.table, service_dir=directory, use_cache=True)

    def new(self, spec: Spec) -> Tuple[bool, str, Optional[str]]:
        job, created = self.table.submit(validate_spec(spec))
        self.worker.run_once()
        job = self.table.get(job["id"])
        return created, job["id"], job["result"] if job["state"] == "done" else None

    def again(self, spec: Spec) -> Tuple[str, Optional[str]]:
        job, created = self.table.submit(validate_spec(spec))
        return job["id"], None if created else job["result"]


def _run_group(
    service: Any, specs: List[Spec], loop: Loop, outcome: Outcome, timer: ScaledTimer
) -> List[float]:
    """Each spec as a new job, then each resubmitted (dedup).

    Returns each submission's scaled seconds, new jobs first.
    """
    group: List[Tuple[Spec, str]] = []
    finished: List[Tuple[str, Optional[str]]] = []
    row: List[float] = []
    for spec in specs:
        outcome.attempted += 1
        timer.start()
        created, job_id, text = service.new(spec)
        seconds = timer.stop()
        row.append(seconds)
        finished.append((job_id, text))
        if not created:
            outcome.fail(1, f"{spec} was not a new job")
        elif text is None:
            outcome.fail(1, f"job {job_id} {spec} failed")
        else:
            loop.latencies.append(seconds)
            group.append((spec, text))
    for spec, (job_id, text) in zip(specs, finished):
        outcome.attempted += 1
        timer.start()
        again_id, again_text = service.again(spec)
        row.append(timer.stop())
        if again_id != job_id or again_text != text:
            outcome.fail(1, f"resubmitted {spec}: not served from job {job_id}")
    loop.groups.append(group)
    loop.submissions += len(row)
    return row


def _closed_loop(
    service: Any, seed: int, budget_s: float, outcome: Outcome, min_executed: int,
    timer: ScaledTimer,
) -> Loop:
    """The fig11 group, then passes of :func:`pass_specs` until
    ``budget_s`` is spent and ``min_executed`` jobs have run."""
    loop = Loop()
    start = time.perf_counter()
    _run_group(service, FIG11_SPECS, loop, outcome, timer)
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        done = (
            index >= MIN_PASSES
            and elapsed >= budget_s
            and len(loop.latencies) >= min_executed
        )
        if done or elapsed >= LOOP_CAP_S:
            break
        loop.pass_rows.append(
            _run_group(service, pass_specs(seed, index), loop, outcome, timer)
        )
    return loop


def _cold_start(directory: Path, timer: ScaledTimer) -> Tuple[ServiceApp, _Http, float]:
    """Start a service and wait until its worker has finished one job.

    Returns the app, its client and the scaled seconds it took.
    """
    timer.start()
    app = ServiceApp(directory, workers=1, worker_poll_s=WORKER_POLL_S, use_cache=True)
    app.start()
    try:
        http = _Http(ServiceClient(app.url))
        http.new(WARM_SPEC)
    except BaseException:
        app.drain()
        raise
    return app, http, timer.stop()


def _inline_check(loop: Loop, directory: Path, outcome: Outcome) -> List[List[float]]:
    """Re-run every executed spec through ``execute_spec`` under the fast
    engine, without cache; the envelopes must match the service's bytes.

    Returns each spec's scaled seconds per pass (the fig11 group excluded).
    """
    rows: List[List[float]] = []
    timer = ScaledTimer()  # simulation and journal writes: the CPU probe
    with use_engine_mode("fast"):
        for group in loop.groups:
            row: List[float] = []
            for spec, text in group:
                timer.start()
                inline = execute_spec(spec, journal_dir=directory / "journal")
                row.append(timer.stop())
                if _sha(inline) != _sha(text):
                    outcome.fail(1, f"{spec}: service envelope differs from inline bytes")
            rows.append(row)
    return rows[1:]


# -- timed and traced runs -------------------------------------------------------

def timed(seed: int, seconds: float, outcome: Outcome, work: Path) -> None:
    setups: List[float] = []
    timer = ScaledTimer()
    for number in range(SETUPS):
        app, _http, spent = _cold_start(work / f"service-{number}", timer)
        app.drain()
        setups.append(spent)
    timer = ScaledTimer(io_probe(work), IO_PROBE_REF_S)
    with use_engine_mode("reference"):
        loop = _closed_loop(
            _InProcess(work / "in-process"), seed, seconds * LOOP_SHARE,
            outcome, MIN_EXECUTED, timer,
        )
    inline_rows = _inline_check(loop, work / "inline", outcome)
    p50, p90 = percentiles_ms(loop.latencies)
    # A pass's time is the sum of each position's median over the
    # passes, so one disturbed job does not move it.
    wall_s = sum(median_per_position(loop.pass_rows))
    outcome.set_end_to_end(
        setup_s=statistics.median(setups),
        wall_s=wall_s,
        wall_fast_s=sum(median_per_position(inline_rows)),
        latency_p50_ms=p50,
        latency_p90_ms=p90,
        jobs_per_s=len(loop.pass_rows[0]) / wall_s,
    )
    beyond = sum(1 for s in loop.latencies if s * 1e3 > p90)
    outcome.notes.append(
        f"{len(loop.latencies)} executed jobs ({beyond} beyond p90), "
        f"{loop.submissions} submissions in {len(loop.pass_rows)} passes; "
        f"setup is the median of {SETUPS} cold starts"
    )


def traced(seed: int, seconds: float, outcome: Outcome, work: Path) -> None:
    """Client call timings over HTTP, then profiled in-process passes.

    cProfile cannot see inside the worker subprocess, so the profiled
    passes drive the same job mix the in-process way; their envelopes
    must match the HTTP service's bytes.
    """
    app, http, _ = _cold_start(work / "service", ScaledTimer())
    try:
        loop = _closed_loop(http, seed, seconds / 3, outcome, 0, ScaledTimer())
    finally:
        app.drain()
    expected = {
        json.dumps(spec, sort_keys=True): text
        for group in loop.groups[:2] for spec, text in group
    }
    specs = FIG11_SPECS + pass_specs(seed, 0)
    numbers = itertools.count()

    def one_pass() -> Dict[str, int]:
        service = _InProcess(work / f"in-process-{next(numbers)}")
        mix = Loop()
        with use_engine_mode("reference"):
            _run_group(service, specs, mix, outcome, ScaledTimer())
        for spec, text in mix.groups[0]:
            if expected.get(json.dumps(spec, sort_keys=True)) != text:
                outcome.fail(1, f"in-process {spec}: envelope differs from the service's")
        cache = ResultCache(service.directory / "cache")
        return {"parallel.cache_misses": cache.stats().entries}

    def profile_counters(stats: pstats.Stats) -> Dict[str, int]:
        gets = call_count(stats, "parallel/cache.py", "get")
        puts = call_count(stats, "parallel/cache.py", "put")
        return {
            "parallel.cache_hits": gets - puts,
            "harness.cells": call_count(stats, "harness/runner.py", "run"),
        }

    result = traced_run(one_pass, seconds * 2 / 3, outcome.problems, profile_counters)
    outcome.metrics.update(per_layer_metrics(result, {
        "service.submit_ms": statistics.median(http.calls["submit"]) * 1e3,
        "service.status_ms": statistics.median(http.calls["status"]) * 1e3,
        "service.result_ms": statistics.median(http.calls["result"]) * 1e3,
        "service.dedup_ms": statistics.median(http.calls["dedup"]) * 1e3,
        "service.status_polls": http.status_polls / len(loop.latencies),
    }))
    outcome.notes.append(
        "device counters (simcore.*, gpu.*) run inside execute_spec and "
        "read 0 here; cache counts come from the in-process passes"
    )
