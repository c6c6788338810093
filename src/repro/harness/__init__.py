"""Experiment harness: run, measure, and reproduce every table & figure.

* :mod:`repro.harness.runner` — execute one (algorithm × strategy ×
  grid) configuration on a fresh simulated device and verify the output.
* :mod:`repro.harness.resilient` — retry-with-backoff and graceful
  degradation around the runner (the fault-tolerant execution path).
* :mod:`repro.harness.phases` — the paper's §7.3 phase-accounting
  methodology (sync time = total − compute-only run) and the per-round
  barrier-cost probe built on it.
* :mod:`repro.harness.experiments` — drivers for Table 1, Fig. 11,
  Fig. 13a–c, Fig. 14a–c, Fig. 15, the headline speedups and the
  model-validation study.
* :mod:`repro.harness.report` — plain-text table/series rendering.
* :mod:`repro.harness.cli` — ``python -m repro.harness <verb>``, one
  table of verbs; :mod:`repro.harness.params` declares their flags,
  which the sweep service's job specs share.
"""

from repro.harness.phases import (
    Breakdown,
    breakdown,
    compute_only,
    probe_barrier_cost,
    sync_time_ns,
)
from repro.harness.runner import RaceMonitor, RecoveryEvent, RunResult, run
from repro.harness.stats import RunStatistics, repeat_run, summarize

__all__ = [
    "Breakdown",
    "RaceMonitor",
    "RecoveryEvent",
    "RunResult",
    "RunStatistics",
    "breakdown",
    "compute_only",
    "probe_barrier_cost",
    "repeat_run",
    "run",
    "summarize",
    "sync_time_ns",
]
