"""The deterministic, crash-safe fan-out executor.

One :meth:`Executor.map` call runs one *batch*: a named worker function
(:mod:`repro.parallel.workers`) applied to a list of payload dicts.
Three properties make parallel batches drop-in replacements for serial
loops:

* **Determinism** — every payload fully seeds its simulation and results
  are returned in submission order, so the output is bit-identical to a
  serial run regardless of worker count, completion order, retries, or
  how many times the batch was interrupted and resumed.
* **Bounded in-flight work** — at most ``4 × jobs`` tasks are submitted
  at once, so a million-cell sweep never materializes a million pickled
  futures.
* **Typed failure** — worker errors, poison payloads, and signal
  interruptions surface as :class:`~repro.errors.ExecutorError` /
  :class:`~repro.errors.InterruptedSweepError`, never a bare pool
  traceback.

A simulated stall never hangs a worker: it ends in the engine's drain
check (:class:`~repro.errors.DeadlockError`) or its ``max_events``
limit, and the worker reports it as a typed ``kind="worker"`` failure.
What remains is a worker *process* dying, and one policy handles it:

* a ``BrokenProcessPool`` rebuilds the pool and re-runs the in-flight
  suspects one at a time;
* a payload that kills its worker twice while alone in flight is
  journaled as ``poison``; every other task still completes, and only
  then does the batch raise ``ExecutorError(kind="poison")``;
* with a journal armed, SIGINT/SIGTERM drain in-flight tasks, flush
  the journal, and raise :class:`~repro.errors.InterruptedSweepError`
  carrying the run-id; ``map(..., resume=run_id)`` replays the journal
  (a journaled poison included, which raises again rather than re-run)
  and executes only the remainder.

``jobs=1`` executes inline in-process (no pool, no pickling) through the
exact same worker functions — the serial reference path every driver
uses by default.  Inline runs support journaling and interruption; a
worker that kills its process inline takes the caller with it.  The
optional :class:`~repro.parallel.cache.ResultCache` short-circuits
tasks whose content-addressed key is already stored.
"""

from __future__ import annotations

import signal as _signal
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError, ExecutorError, InterruptedSweepError
from repro.parallel.cache import ResultCache
from repro.parallel.journal import (
    DEFAULT_JOURNAL_DIR,
    JournalEntry,
    RunJournal,
    run_id_for,
)

__all__ = ["BatchStats", "Executor"]

#: a progress callback: ``progress(done, total, cached)`` after every
#: task that completes (``cached=True`` when served from the cache or
#: replayed from a journal).
ProgressFn = Callable[[int, int, bool], None]

#: how often (s) the supervisor wakes to notice signals.
_SUPERVISE_TICK_S = 0.25

#: submission window: tasks in flight at once, per worker process.
_INFLIGHT_PER_JOB = 4

#: attributed worker-process kills before a payload is poison.
_POISON_KILLS = 2


@dataclass
class BatchStats:
    """Provenance of one :meth:`Executor.map` call.

    Exposed as :attr:`Executor.last_batch` so drivers can stamp sweep
    and campaign reports with partial-failure provenance: how many
    re-executions the supervisor forced (``retries``), which payload
    indices were journaled as poison (``quarantined``), and the run-id
    the batch was resumed from, if any (``resumed_from``).
    """

    run_id: str
    worker: str
    total: int
    #: results replayed from the journal instead of executed.
    replayed: int = 0
    #: task re-executions forced by worker deaths (the culpable task
    #: and any collateral in-flight siblings).
    retries: int = 0
    #: payload indices journaled as poison.
    quarantined: List[int] = field(default_factory=list)
    #: run-id the batch resumed from (always equals ``run_id``).
    resumed_from: Optional[str] = None
    journal_path: Optional[str] = None


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without joining its workers.

    ``cancel_futures`` drops queued tasks; live worker processes are
    then terminated so no task outlives the batch as an orphan (the
    stdlib offers no public kill-one-task API).
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


class Executor:
    """Shard independent simulation runs across supervised workers.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs inline in-process.
    cache:
        Optional :class:`~repro.parallel.ResultCache`; tasks whose key
        is stored are served without running, fresh results are stored.
    progress:
        ``progress(done, total, cached)`` callback, invoked in the
        calling process after every completed task.
    journal_dir:
        Root directory for write-ahead run journals.  ``None``
        (default) disables journaling — and with it signal supervision
        — preserving plain fan-out semantics.  Passing a directory
        arms both: every batch journals each completion under
        ``journal_dir/<run-id>/journal.jsonl`` and SIGINT/SIGTERM
        raise a resumable
        :class:`~repro.errors.InterruptedSweepError`.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        journal_dir: Optional[Union[str, Path]] = None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: tasks actually executed (cache misses) across this instance.
        self.tasks_run = 0
        #: tasks served from the cache across this instance.
        self.tasks_cached = 0
        #: provenance of the most recent :meth:`map` call.
        self.last_batch: Optional[BatchStats] = None

    # -- public API ---------------------------------------------------------

    def map(
        self,
        worker: str,
        payloads: Sequence[Dict[str, Any]],
        *,
        resume: Optional[str] = None,
    ) -> List[Any]:
        """Run ``worker`` over every payload; results in payload order.

        ``worker`` names a registered function in
        :mod:`repro.parallel.workers`; each payload must be a plain
        JSON-serializable dict that fully determines the task (that is
        what the cache, the run-id and the journal key on).

        ``resume`` replays a previous journaled invocation of this
        exact batch: pass the run-id from an
        :class:`~repro.errors.InterruptedSweepError` (it must match
        this batch's content-derived run-id — a changed configuration
        is a typed error, never a silent splice) or the string
        ``"auto"`` to resume whatever journal exists for this batch
        and start fresh when none does.  Replayed results are placed
        by submission index, so a resumed batch is bit-identical to an
        uninterrupted one.
        """
        from repro.parallel.workers import resolve

        fn = resolve(worker)
        total = len(payloads)
        run_id = run_id_for(worker, payloads)
        stats = BatchStats(run_id=run_id, worker=worker, total=total)
        self.last_batch = stats

        journal_root = self.journal_dir
        if resume is not None and journal_root is None:
            journal_root = DEFAULT_JOURNAL_DIR
        journal: Optional[RunJournal] = None
        replayed: Dict[int, JournalEntry] = {}
        if journal_root is not None:
            journal = RunJournal(journal_root, run_id)
            stats.journal_path = str(journal.path)
            if resume is not None:
                if resume not in ("auto", run_id):
                    raise ExecutorError(
                        f"cannot resume run {resume!r}: this batch's "
                        f"run-id is {run_id!r} (the id is derived from "
                        "the worker and payloads, so a changed "
                        "configuration resumes nothing)",
                        worker=worker,
                        kind="resume",
                    )
                if journal.exists():
                    _, replayed = journal.load(worker=worker, total=total)
                    stats.resumed_from = run_id
                elif resume != "auto":
                    raise ExecutorError(
                        f"no journal for run {run_id!r} under "
                        f"{journal_root} — nothing to resume",
                        worker=worker,
                        kind="resume",
                    )
            journal.start(
                worker=worker, total=total, fresh=stats.resumed_from is None
            )

        supervisor = _Supervisor(self, worker, fn, stats, journal, total)
        try:
            # Replay pass: journaled completions land by index, first.
            for index in sorted(replayed):
                if 0 <= index < total:
                    supervisor.replay(replayed[index])

            # Cache pass: fill hits, queue misses.
            pending: List[Tuple[int, Optional[str], Dict[str, Any]]] = []
            for index, payload in enumerate(payloads):
                if index in replayed:
                    continue
                if self.cache is not None:
                    key = self.cache.key(worker, payload)
                    hit, value = self.cache.get(key)
                    if hit:
                        supervisor.complete(index, None, value, cached=True)
                        continue
                    pending.append((index, key, payload))
                else:
                    pending.append((index, None, payload))

            if pending:
                with supervisor.signal_guard():
                    if self.jobs == 1:
                        supervisor.run_inline(pending)
                    else:
                        supervisor.run_pool(pending)
        finally:
            if journal is not None:
                journal.close()

        if stats.quarantined:
            hint = (
                f"; journal: {stats.journal_path}" if journal is not None else ""
            )
            raise ExecutorError(
                f"worker {worker!r} payload(s) "
                f"{', '.join(map(str, stats.quarantined))} killed their "
                f"worker process repeatedly and were quarantined as "
                f"poison; the other "
                f"{total - len(stats.quarantined)} task(s) completed"
                f"{hint}",
                worker=worker,
                task_index=stats.quarantined[0],
                kind="poison",
            )
        return supervisor.results

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cached = "+cache" if self.cache is not None else ""
        journaled = "+journal" if self.journal_dir is not None else ""
        return f"Executor(jobs={self.jobs}{cached}{journaled})"


class _Supervisor:
    """One :meth:`Executor.map` call's mutable state and loops."""

    def __init__(
        self,
        executor: Executor,
        worker: str,
        fn: Callable[[Dict[str, Any]], Any],
        stats: BatchStats,
        journal: Optional[RunJournal],
        total: int,
    ):
        self.ex = executor
        self.worker = worker
        self.fn = fn
        self.stats = stats
        self.journal = journal
        self.total = total
        self.results: List[Any] = [None] * total
        self.done = 0
        self.interrupt: Optional[str] = None
        self.interrupt_again = False
        self.signals_armed = False
        #: index -> attributed worker-process kills.
        self.kills: Dict[int, int] = {}

    # -- bookkeeping --------------------------------------------------------

    def complete(
        self, index: int, key: Optional[str], value: Any, *, cached: bool = False
    ) -> None:
        """Record one finished task: result slot, cache, journal, progress."""
        self.results[index] = value
        if cached:
            self.ex.tasks_cached += 1
        else:
            self.ex.tasks_run += 1
            if key is not None and self.ex.cache is not None:
                self.ex.cache.put(key, value)
        if self.journal is not None:
            self.journal.record(
                JournalEntry(index, "ok", value, retries=self.kills.get(index, 0))
            )
        self.done += 1
        if self.ex.progress is not None:
            self.ex.progress(self.done, self.total, cached)

    def replay(self, entry: JournalEntry) -> None:
        """Place one journaled completion without executing anything.

        A journaled poison is not re-run: it leaves its slot empty and
        makes the batch raise again once every other task is placed.
        """
        if entry.status == "ok":
            self.results[entry.index] = entry.value
        else:
            self.stats.quarantined.append(entry.index)
        self.stats.retries += entry.retries
        self.stats.replayed += 1
        self.done += 1
        if self.ex.progress is not None:
            self.ex.progress(self.done, self.total, True)

    def quarantine(self, index: int) -> None:
        """Resolve a poison payload without a result and journal it."""
        kills = self.kills[index]
        self.stats.quarantined.append(index)
        if self.journal is not None:
            self.journal.record(
                JournalEntry(
                    index,
                    "poison",
                    None,
                    error=(
                        f"payload {index} killed its worker process "
                        f"{kills} time(s); quarantined as poison"
                    ),
                    retries=kills,
                )
            )
        self.done += 1
        if self.ex.progress is not None:
            self.ex.progress(self.done, self.total, False)

    def _flush_journal(self) -> None:
        if self.journal is not None:
            self.journal.flush()

    def _raise_interrupted(self) -> None:
        self._flush_journal()
        raise InterruptedSweepError(
            self.stats.run_id,
            worker=self.worker,
            done=self.done,
            total=self.total,
            signal_name=self.interrupt or "signal",
            journal_path=self.stats.journal_path,
        )

    def _worker_failed(self, index: int, exc: Exception) -> ExecutorError:
        return ExecutorError(
            f"worker {self.worker!r} task {index} failed: "
            f"{type(exc).__name__}: {exc}",
            worker=self.worker,
            task_index=index,
            kind="worker",
        )

    # -- signal supervision -------------------------------------------------

    @contextmanager
    def signal_guard(self) -> Iterator[bool]:
        """Install SIGINT/SIGTERM capture for the batch (journaled runs).

        Without a journal an interrupt has nothing durable to offer, so
        default delivery (KeyboardInterrupt / termination) is left
        untouched.  Handlers can only live on the main thread; anywhere
        else supervision degrades gracefully to unarmed.
        """
        if (
            self.journal is None
            or threading.current_thread() is not threading.main_thread()
        ):
            yield False
            return

        def handler(signum: int, frame: Any) -> None:
            if self.interrupt is not None:
                self.interrupt_again = True
            else:
                self.interrupt = _signal.Signals(signum).name

        previous: Dict[int, Any] = {}
        try:
            for sig in (_signal.SIGINT, _signal.SIGTERM):
                previous[sig] = _signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            for sig, old in previous.items():
                _signal.signal(sig, old)
            yield False
            return
        self.signals_armed = True
        try:
            yield True
        finally:
            self.signals_armed = False
            for sig, old in previous.items():
                _signal.signal(sig, old)

    # -- serial reference path ----------------------------------------------

    def run_inline(
        self, pending: List[Tuple[int, Optional[str], Dict[str, Any]]]
    ) -> None:
        for index, key, payload in pending:
            if self.interrupt is not None:
                self._raise_interrupted()
            try:
                value = self.fn(dict(payload))
            except ExecutorError:
                self._flush_journal()
                raise
            except Exception as exc:
                self._flush_journal()
                raise self._worker_failed(index, exc) from exc
            self.complete(index, key, value)
        if self.interrupt is not None:
            # Signal during the last task's completion callback: the
            # per-task check above never runs again, but the interrupt
            # must still surface (see run_pool).
            self._raise_interrupted()

    # -- supervised process-pool path ----------------------------------------

    def run_pool(
        self, pending: List[Tuple[int, Optional[str], Dict[str, Any]]]
    ) -> None:
        from repro.parallel.workers import dispatch

        tasks: Dict[int, Tuple[Optional[str], Dict[str, Any]]] = {
            index: (key, payload) for index, key, payload in pending
        }
        queue: deque = deque(index for index, _, _ in pending)
        isolation: deque = deque()
        #: future -> payload index
        inflight: Dict[Any, int] = {}
        window = _INFLIGHT_PER_JOB * self.ex.jobs
        pool = ProcessPoolExecutor(max_workers=self.ex.jobs)

        def rebuild() -> None:
            nonlocal pool
            _terminate_pool(pool)
            try:
                pool = ProcessPoolExecutor(max_workers=self.ex.jobs)
            except Exception as exc:  # pragma: no cover - OS resource limits
                raise ExecutorError(
                    f"worker pool for {self.worker!r} could not be "
                    f"rebuilt: {exc}",
                    worker=self.worker,
                    kind="pool",
                ) from exc

        def submit(index: int) -> None:
            _, payload = tasks[index]
            inflight[pool.submit(dispatch, self.worker, dict(payload))] = index

        def harvest(future: Any, index: int) -> None:
            try:
                value = future.result()
            except ExecutorError:
                self._flush_journal()
                _terminate_pool(pool)
                raise
            except BrokenProcessPool:
                raise
            except Exception as exc:
                self._flush_journal()
                _terminate_pool(pool)
                raise self._worker_failed(index, exc) from exc
            self.complete(index, tasks[index][0], value)

        def salvage(future: Any, index: int) -> bool:
            """Complete a future that finished; False when it did not."""
            if not future.done():
                return False
            try:
                value = future.result()
            except Exception:
                return False
            self.complete(index, tasks[index][0], value)
            return True

        def pool_broke() -> None:
            """Salvage finished futures, suspect the rest, rebuild."""
            suspects = sorted(
                index
                for future, index in inflight.items()
                if not salvage(future, index)
            )
            inflight.clear()
            rebuild()
            if len(suspects) == 1:
                # Alone in flight: the kill is attributed.
                index = suspects[0]
                self.kills[index] = self.kills.get(index, 0) + 1
                if self.kills[index] >= _POISON_KILLS:
                    self.quarantine(index)
                    return
            for index in suspects:
                self.stats.retries += 1
                isolation.append(index)

        def drain() -> None:
            """Let in-flight siblings finish and journal their results.

            Runs before an interrupt surfaces, so already-spent work
            reaches the journal instead of evaporating.  A second
            interrupt abandons everything still running.
            """
            while inflight and not self.interrupt_again:
                for future, index in list(inflight.items()):
                    if future.done():
                        del inflight[future]
                        salvage(future, index)  # a failure is lost here
                if inflight:
                    wait(set(inflight), timeout=_SUPERVISE_TICK_S,
                         return_when=FIRST_COMPLETED)

        try:
            while queue or isolation or inflight:
                if self.interrupt is not None:
                    drain()
                    _terminate_pool(pool)
                    self._raise_interrupted()

                if isolation:
                    # Suspects re-run alone so a repeat kill is
                    # attributable to exactly one payload.
                    if not inflight:
                        try:
                            submit(isolation.popleft())
                        except BrokenProcessPool:
                            pool_broke()
                            continue
                elif queue:
                    try:
                        while queue and len(inflight) < window:
                            submit(queue.popleft())
                    except BrokenProcessPool:
                        pool_broke()
                        continue

                if not inflight:
                    continue

                completed, _ = wait(
                    set(inflight),
                    timeout=_SUPERVISE_TICK_S if self.signals_armed else None,
                    return_when=FIRST_COMPLETED,
                )

                broke = False
                for future in completed:
                    index = inflight.pop(future)
                    try:
                        harvest(future, index)
                    except BrokenProcessPool:
                        inflight[future] = index
                        broke = True
                if broke:
                    pool_broke()
        except BaseException:
            self._flush_journal()
            _terminate_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)
            if self.interrupt is not None:
                # The signal landed during the final harvest batch, after
                # the loop's last top-of-iteration check.  Every task is
                # journaled; the interrupt must still surface, or a
                # trapped SIGINT/SIGTERM would be silently swallowed.
                self._raise_interrupted()
