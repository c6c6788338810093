"""Parallel sweep execution: deterministic fan-out + memoization + crash safety.

The paper's evaluation is a grid of sweeps — Table 1, Figs. 11/13/14/15,
three kernels × four barriers × block counts — and each cell is an
*independent, seeded* simulation.  This package exploits that:

* :class:`Executor` shards independent runs across
  ``ProcessPoolExecutor`` workers with bounded in-flight work and a
  progress callback.  Results come back in submission order, so a
  parallel sweep is **bit-identical** to the serial one.
* A **supervisor** keeps one bad task from costing the batch: a worker
  death rebuilds the pool and re-runs the in-flight tasks one at a
  time, and a payload that kills its worker twice alone is journaled as
  poison and raised as a typed ``poison``
  :class:`~repro.errors.ExecutorError` once every sibling completes.
* :class:`RunJournal` write-ahead-journals every completion under a
  deterministic run-id (:func:`run_id_for`); SIGINT/SIGTERM drain
  in-flight tasks, flush the journal and raise
  :class:`~repro.errors.InterruptedSweepError` — ``map(...,
  resume=run_id)`` replays the journal and executes only the
  remainder.
* :class:`ResultCache` memoizes each run under a content-addressed key —
  the sha256 of the canonical JSON of (worker, algorithm config,
  strategy, device config, seed, cache schema version) — stored under
  ``benchmarks/out/cache/``.  Re-running a sweep after a doc-only change
  is instant; any config change misses cleanly because the key changes.

Every batch driver accepts an ``executor=`` (and ``resume=``):
:mod:`repro.harness.experiments` (all figure/table drivers),
:func:`repro.faults.chaos.chaos_campaign` and
:func:`repro.sanitize.sanitize_run` fan out per cell / per seed.  The
CLI exposes the same via ``--jobs N``, ``--cache``, ``--journal`` and
``--resume``.

See docs/parallel.md for determinism guarantees and docs/resilience.md
for the journal/resume/poison semantics.
"""

from repro.errors import ExecutorError, InterruptedSweepError, JournalError
from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
)
from repro.parallel.executor import BatchStats, Executor
from repro.parallel.journal import (
    DEFAULT_JOURNAL_DIR,
    JOURNAL_SCHEMA_VERSION,
    JournalEntry,
    RunJournal,
    run_id_for,
)

__all__ = [
    "BatchStats",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_DIR",
    "Executor",
    "ExecutorError",
    "InterruptedSweepError",
    "JOURNAL_SCHEMA_VERSION",
    "JournalEntry",
    "JournalError",
    "ResultCache",
    "RunJournal",
    "cache_key",
    "run_id_for",
]
