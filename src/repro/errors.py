"""Exception hierarchy for the ``repro`` package.

All errors raised by the simulator, the GPU device model, the barrier
strategies and the harness derive from :class:`ReproError`, so callers can
catch one type at an API boundary.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ProcessError",
    "BarrierTimeoutError",
    "FaultError",
    "RetryExhaustedError",
    "ConfigError",
    "MemoryError_",
    "LaunchError",
    "OccupancyError",
    "SyncProtocolError",
    "ExperimentError",
    "ExecutorError",
    "JournalError",
    "InterruptedSweepError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(ReproError):
    """An invariant of the discrete-event engine was violated."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress.

    Raised when the event queue drains while live processes remain blocked
    on signals, resources or joins.  This is the simulated analogue of a
    real CUDA grid hanging forever: e.g. launching more blocks than can be
    co-resident while using a device-side spin barrier (paper §5).

    Attributes
    ----------
    blocked:
        A list of ``(process_name, reason)`` pairs describing each process
        that was still waiting when the queue drained.
    """

    def __init__(self, blocked: list[tuple[str, str]]):
        self.blocked = list(blocked)
        detail = "; ".join(f"{name}: {reason}" for name, reason in self.blocked)
        super().__init__(
            f"deadlock: event queue drained with {len(self.blocked)} "
            f"blocked process(es) [{detail}]"
        )


class ProcessError(SimulationError):
    """A simulated process raised or misused the effect protocol."""


class BarrierTimeoutError(SimulationError):
    """A run armed with a fault plan stalled: no process can ever move again.

    The engine's drain check found processes still parked when the event
    queue emptied (the condition behind :class:`DeadlockError`), and no
    kernel had been killed to explain it.  The runner raises this typed,
    recoverable error instead, so the resilient runtime can retry or
    degrade.  ``fired_at_ns`` is the virtual time of the stall; the
    ``stuck`` list names each parked process and what it was waiting on
    — for injected faults, the reason string names the fault.
    """

    def __init__(
        self,
        strategy: str,
        fired_at_ns: int,
        stuck: list[tuple[str, str]],
        faults: list[str] | None = None,
    ):
        self.strategy = strategy
        self.fired_at_ns = fired_at_ns
        self.stuck = list(stuck)
        self.faults = list(faults or [])
        detail = "; ".join(f"{name}: {reason}" for name, reason in self.stuck)
        fault_note = (
            f" (injected: {', '.join(self.faults)})" if self.faults else ""
        )
        super().__init__(
            f"barrier stall: {strategy} round stalled at t={fired_at_ns} ns "
            f"with {len(self.stuck)} process(es) parked [{detail}]{fault_note}"
        )


class FaultError(ReproError):
    """A fault plan was malformed or injected inconsistently."""


class RetryExhaustedError(ReproError):
    """Every recovery attempt failed and no degradation path remained.

    Carries the per-attempt failure history so callers (and the chaos
    report) can see exactly how the run died.
    """

    def __init__(self, strategy: str, attempts: int, history: list[str]):
        self.strategy = strategy
        self.attempts = attempts
        self.history = list(history)
        trail = " | ".join(self.history) or "no recorded failures"
        super().__init__(
            f"{strategy}: all {attempts} attempt(s) failed and graceful "
            f"degradation was unavailable [{trail}]"
        )


class ConfigError(ReproError):
    """Invalid device, kernel or experiment configuration."""


class MemoryError_(ReproError):
    """Invalid access to simulated global or shared memory."""


class LaunchError(ReproError):
    """A kernel launch request was malformed."""


class OccupancyError(LaunchError):
    """A kernel cannot satisfy its resource/co-residency requirements.

    Raised *before* launching when a device-side barrier requires all
    blocks to be co-resident (one block per SM, paper §5) but the grid is
    larger than the number of SMs.
    """


class SyncProtocolError(ReproError):
    """A barrier implementation violated its own protocol invariants."""


class ExperimentError(ReproError):
    """An experiment driver was asked for an impossible configuration."""


class ExecutorError(ReproError):
    """A parallel-executor task failed or could not dispatch.

    Raised by :class:`repro.parallel.Executor` — never from inside a
    worker process.  ``kind`` classifies the failure:

    * ``"worker"`` — the worker function raised (the original error's
      type and message are embedded in this message and chained as
      ``__cause__`` when available);
    * ``"pool"`` — the process pool itself broke (a worker died) and
      could not be rebuilt;
    * ``"poison"`` — one or more payloads killed their worker process
      twice while alone in flight; every other task completed (and was
      journaled) before this surfaced, and resuming the batch replays
      the journaled poison and raises again;
    * ``"resume"`` — a requested ``resume=`` run-id does not match this
      batch (the configuration changed) or has no journal on disk;
    * ``"unknown-worker"`` — the requested worker name is not registered.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: str | None = None,
        task_index: int | None = None,
        kind: str = "worker",
    ):
        self.worker = worker
        self.task_index = task_index
        self.kind = kind
        super().__init__(message)


class JournalError(ReproError):
    """A run journal is unreadable, mismatched, or malformed.

    Raised when loading a write-ahead journal whose header does not
    match the batch being resumed (different run-id, worker, or task
    count) or whose header line cannot be parsed at all.  A truncated
    *trailing* entry — the signature of a crash mid-append — is **not**
    an error: write-ahead semantics mean every fully written line is
    trusted and the torn tail is simply re-run.
    """


class ServiceError(ReproError):
    """The sweep service refused or could not process a request.

    Raised by :mod:`repro.service` — the job table, the runner
    registry, the HTTP app and the client.  ``kind`` classifies the
    refusal so callers can map it onto an HTTP status (and the client
    can map it back):

    * ``"spec"`` — the submitted job spec is malformed (unknown
      experiment, bad parameter types) → 400;
    * ``"queue-full"`` — the bounded queue is at capacity; the
      submission was **not** enqueued and should be retried after
      backing off → 429;
    * ``"draining"`` — the service received SIGTERM and no longer
      accepts submissions → 503;
    * ``"not-found"`` — no job with the requested id → 404;
    * ``"state"`` — the request is invalid for the job's current state
      (e.g. fetching the result of a job that failed) → 409;
    * ``"protocol"`` — the client got a response it cannot interpret.
    """

    def __init__(self, message: str, *, kind: str = "protocol"):
        self.kind = kind
        super().__init__(message)


class InterruptedSweepError(ReproError):
    """A journaled sweep was interrupted (SIGINT/SIGTERM) and drained.

    The supervisor caught the signal, let in-flight tasks finish,
    flushed their results to the write-ahead journal, and raised this
    instead of dying mid-batch.  ``run_id`` is the content-derived
    batch identity to pass back as ``--resume <run_id>`` (or
    ``resume=`` on the driver): the resumed sweep replays the journal
    and executes only the remainder, bit-identical to an uninterrupted
    run.
    """

    def __init__(
        self,
        run_id: str,
        *,
        worker: str,
        done: int,
        total: int,
        signal_name: str = "signal",
        journal_path: str | None = None,
    ):
        self.run_id = run_id
        self.worker = worker
        self.done = done
        self.total = total
        self.signal_name = signal_name
        self.journal_path = journal_path
        where = f" (journal: {journal_path})" if journal_path else ""
        super().__init__(
            f"sweep {run_id} ({worker}) interrupted by {signal_name} with "
            f"{done}/{total} task(s) journaled{where}; rerun with "
            f"resume={run_id!r} to execute only the remainder"
        )
