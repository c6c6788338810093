"""The HTTP front door: submit, poll, fetch, drain.

Stdlib-only (``http.server.ThreadingHTTPServer``) so the service adds
no dependencies.  The wire protocol (docs/service.md):

* ``POST /jobs`` — body ``{"experiment": ..., "params": {...}}``.
  Validated *before* enqueueing (400 + typed message on a bad spec).
  Returns the ``job-status`` envelope: 201 for a new job, 200 for a
  content-addressed dedup hit (same config → same job, at most one
  execution).  A full queue is **explicit backpressure**: 429 with a
  ``Retry-After`` header, nothing enqueued.  While draining: 503.
* ``GET /jobs`` — ``{"schema": 3, "kind": "job-list", "jobs": [...]}``.
* ``GET /jobs/<id>`` — the ``job-status`` envelope (404 if unknown).
* ``GET /jobs/<id>/result`` — the stored schema-3 result envelope,
  byte-for-byte as the worker serialized it (200); a failed job serves
  its ``job-failure`` envelope with 409; a job still in flight is 404
  with the status envelope so pollers have one stop.
* ``GET /healthz`` — liveness: 200 whenever the process can answer.
* ``GET /readyz`` — readiness: 200 with queue counts and worker/reaper
  stats, 503 once draining (load balancers stop routing, in-flight
  work finishes).

``ServiceApp`` also owns the background machinery: the
:class:`~repro.service.reaper.Reaper` thread, and the worker
*subprocesses* it spawns and supervises — a worker that dies (SIGKILL,
OOM) is respawned while the reaper requeues whatever lease it held.
SIGTERM starts a graceful drain: readiness flips, submissions get 503,
workers receive SIGTERM (their executors drain in-flight cells to the
journal and hand jobs back uncharged), and the server exits once they
are gone.  A restarted service needs no recovery step beyond the
reaper's first sweep: the job table and the journals *are* the
in-flight state.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ServiceError
from repro.serialization import dump_job_status, dump_result
from repro.service.jobs import JobTable
from repro.service.reaper import Reaper
from repro.service.runners import validate_spec

__all__ = ["ServiceApp", "serve"]

#: seconds a drain waits for workers to hand their jobs back.
_DRAIN_GRACE_S = 30.0

#: the largest request body ``POST /jobs`` reads; a job spec is a few
#: hundred bytes, and a larger declared length is refused unread.
_MAX_BODY_BYTES = 1 << 20


def _error_body(exc: ServiceError) -> str:
    """A typed refusal as a ``service-error`` envelope."""
    return dump_result(
        "service-error", {"error": {"kind": exc.kind, "message": str(exc)}}
    )


def _body_length(values: Optional[List[str]]) -> int:
    """The body length ``Content-Length`` declares; no header declares 0.

    Repeats must agree and the value must be an integer from 0 to
    :data:`_MAX_BODY_BYTES`, or the typed ``spec`` refusal is raised.
    """
    raw = ", ".join(sorted({(value or "0").strip() for value in values or ["0"]}))
    # Count digits before int(), which refuses a literal past its limit.
    if not (
        raw.isascii() and raw.isdigit()
        and len(raw.lstrip("0")) <= len(str(_MAX_BODY_BYTES))
        and int(raw) <= _MAX_BODY_BYTES
    ):
        raise ServiceError(
            f"Content-Length must be one integer from 0 to {_MAX_BODY_BYTES}, "
            f"got {raw!r}", kind="spec"
        )
    return int(raw)


class ServiceApp:
    """One service instance: job table + reaper + workers + HTTP server.

    ``workers=0`` starts no worker processes — useful when workers run
    elsewhere (other hosts pointing at a shared directory, or a test
    driving :class:`~repro.service.worker.Worker` inline).
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        lease_s: float = 30.0,
        retry_budget: int = 2,
        max_queued: Optional[int] = 256,
        worker_jobs: int = 1,
        worker_poll_s: float = 0.5,
        use_cache: bool = False,
    ):
        self.service_dir = Path(service_dir)
        self.service_dir.mkdir(parents=True, exist_ok=True)
        self.table = JobTable(
            self.service_dir / "jobs.sqlite3",
            lease_s=lease_s,
            retry_budget=retry_budget,
            max_queued=max_queued,
        )
        self.reaper = Reaper(self.table)
        self.workers = workers
        self.worker_jobs = worker_jobs
        self.worker_poll_s = worker_poll_s
        self.use_cache = use_cache
        self.draining = False
        self.started_at = time.time()
        self._procs: List[subprocess.Popen] = []
        self._supervisor: Optional[threading.Thread] = None
        self._server_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        handler = _make_handler(self)
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True

    # -- addresses -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[0], self.server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- worker supervision --------------------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        cmd = [
            sys.executable, "-m", "repro.service.worker_main",
            "--service-dir", str(self.service_dir),
            "--lease-s", str(self.table.lease_s),
            "--retry-budget", str(self.table.retry_budget),
            "--jobs", str(self.worker_jobs),
            "--poll-s", str(self.worker_poll_s),
        ]
        if self.use_cache:
            cmd.append("--cache")
        return subprocess.Popen(cmd)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (for ops and chaos tests)."""
        return [p.pid for p in self._procs if p.poll() is None]

    def _supervise(self) -> None:
        """Respawn dead workers until draining.

        A SIGKILLed worker's lease is the reaper's problem; replacing
        the process is this loop's.  Together they make worker death a
        delay, not a loss.
        """
        while not self._stop.wait(0.5):
            if self.draining:
                return
            for i, proc in enumerate(self._procs):
                if proc.poll() is not None and not self.draining:
                    self._procs[i] = self._spawn_worker()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the reaper, the workers, and the HTTP server thread."""
        # Recover whatever a previous instance left leased: on a cold
        # start every lease in the table is from a dead worker.
        self.reaper.sweep()
        self.reaper.start()
        self._procs = [self._spawn_worker() for _ in range(self.workers)]
        if self._procs:
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True, name="worker-supervisor"
            )
            self._supervisor.start()
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, daemon=True, name="http-server"
        )
        self._server_thread.start()

    def drain(self, grace_s: float = _DRAIN_GRACE_S) -> None:
        """Graceful shutdown: refuse new work, let workers hand back.

        Readiness flips immediately; workers get SIGTERM (their
        executors drain in-flight cells to the journal and release
        their jobs uncharged); after ``grace_s`` any straggler is
        killed — its lease then expires and the *next* service
        instance's reaper requeues it, so even an ungraceful drain
        loses nothing.  An app that was never started only closes its
        socket and its table.
        """
        self.draining = True
        self._stop.set()
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + grace_s
        for proc in self._procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.reaper.stop()
        if self.reaper.is_alive():
            # A sweep in flight hands its connection back before close.
            self.reaper.join()
        if self._server_thread is not None:
            # shutdown() waits for a serve_forever loop only start() runs.
            self.server.shutdown()
        self.server.server_close()
        self.table.close()

    # -- request handling (called from handler threads) ----------------------

    def handle_submit(self, body: bytes) -> Tuple[int, Dict[str, str], str]:
        if self.draining:
            return 503, {}, _error_body(
                ServiceError("service is draining; resubmit to the next "
                             "instance", kind="draining")
            )
        try:
            spec = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and an integer
            # literal past Python's digit limit; RecursionError, nesting
            # deeper than the decoder's stack.
            return 400, {}, _error_body(
                ServiceError(f"request body is not valid JSON: {exc}",
                             kind="spec")
            )
        try:
            spec = validate_spec(spec)
            job, created = self.table.submit(spec)
        except ServiceError as exc:
            if exc.kind == "queue-full":
                return 429, {"Retry-After": "5"}, _error_body(exc)
            return 400, {}, _error_body(exc)
        headers = {"Location": f"/jobs/{job['id']}"}
        return (201 if created else 200), headers, dump_job_status(job)

    def handle_status(self, job_id: str) -> Tuple[int, Dict[str, str], str]:
        job = self.table.get(job_id)
        if job is None:
            return 404, {}, _error_body(
                ServiceError(f"no job {job_id!r}", kind="not-found")
            )
        return 200, {}, dump_job_status(job)

    def handle_result(self, job_id: str) -> Tuple[int, Dict[str, str], str]:
        job = self.table.get(job_id)
        if job is None:
            return 404, {}, _error_body(
                ServiceError(f"no job {job_id!r}", kind="not-found")
            )
        if job["state"] == "done":
            return 200, {}, job["result"]
        if job["state"] == "failed":
            return 409, {}, job["error"]
        return 404, {}, dump_job_status(job)

    def handle_list(self) -> Tuple[int, Dict[str, str], str]:
        jobs = [
            json.loads(dump_job_status(job)) for job in self.table.list_jobs()
        ]
        return 200, {}, dump_result("job-list", {"jobs": jobs})

    def handle_healthz(self) -> Tuple[int, Dict[str, str], str]:
        return 200, {}, dump_result("health", {"ok": True})

    def handle_readyz(self) -> Tuple[int, Dict[str, str], str]:
        body = {
            "ready": not self.draining,
            "draining": self.draining,
            "counts": self.table.counts(),
            "workers": len(self.worker_pids()),
            "reaper": {
                "requeued": self.reaper.requeued,
                "failed": self.reaper.failed,
                "errors": self.reaper.errors,
            },
            "uptime_s": round(time.time() - self.started_at, 3),
        }
        return (503 if self.draining else 200), {}, dump_result("ready", body)


def _make_handler(app: ServiceApp) -> type:
    """Bind a BaseHTTPRequestHandler subclass to one app instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve"
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # the service logs through `logging`, not stderr spam

        def _send(
            self, status: int, headers: Dict[str, str], body: str
        ) -> None:
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send(*app.handle_healthz())
            elif path == "/readyz":
                self._send(*app.handle_readyz())
            elif path == "/jobs":
                self._send(*app.handle_list())
            elif path.startswith("/jobs/"):
                parts = path[len("/jobs/"):].split("/")
                if len(parts) == 1:
                    self._send(*app.handle_status(parts[0]))
                elif len(parts) == 2 and parts[1] == "result":
                    self._send(*app.handle_result(parts[0]))
                else:
                    self._send(404, {}, _error_body(
                        ServiceError(f"no route {path!r}", kind="not-found")
                    ))
            else:
                self._send(404, {}, _error_body(
                    ServiceError(f"no route {path!r}", kind="not-found")
                ))

        def do_POST(self) -> None:
            path = self.path.rstrip("/")
            if path != "/jobs":
                self._send(404, {}, _error_body(
                    ServiceError(f"no route {path!r}", kind="not-found")
                ))
                return
            try:
                length = _body_length(self.headers.get_all("Content-Length"))
                body = self.rfile.read(length)
                if len(body) < length:
                    raise ServiceError(
                        f"request body ended after {len(body)} of its "
                        f"{length} bytes", kind="spec"
                    )
            except ServiceError as exc:
                # The body's extent is unknown, so it cannot be skipped:
                # answer, then close the connection.
                self.close_connection = True
                self._send(400, {}, _error_body(exc))
                return
            self._send(*app.handle_submit(body))

        def send_error(self, code: int, message: Any = None, explain: Any = None):
            # A request http.server cannot parse gets the typed refusal,
            # with a status line even if it named no HTTP version.
            self.request_version = self.protocol_version
            self.close_connection = True
            self._send(400, {}, _error_body(ServiceError(
                f"malformed request ({code}): {message}", kind="spec"
            )))

    return Handler


def serve(app: ServiceApp) -> int:
    """Run ``app`` until SIGTERM/SIGINT, then drain gracefully.

    The blocking entry point behind ``repro serve``.  Returns 0 after a
    clean drain.
    """
    stop = threading.Event()

    def _signal(signum: int, frame: object) -> None:
        stop.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _signal)
    app.start()
    max_queued = app.table.max_queued
    print(
        f"repro serve: listening on {app.url} "
        f"({app.workers} worker(s), lease {app.table.lease_s}s, "
        f"queue cap {max_queued if max_queued is not None else 'none'}) "
        f"— jobs under {app.service_dir}",
        flush=True,
    )
    try:
        stop.wait()
    finally:
        print("repro serve: draining...", flush=True)
        app.drain()
        for sig, old in previous.items():
            signal.signal(sig, old)
        print("repro serve: drained, bye", flush=True)
    return 0
