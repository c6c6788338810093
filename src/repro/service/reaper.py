"""The reaper: the only authority over expired leases.

A background thread that sweeps the job table every second for leases
whose deadline has passed and applies the recovery policy
(:meth:`~repro.service.jobs.JobTable.requeue_expired`): requeue with
exponential backoff while the retry budget lasts, then a terminal
``failed`` with a typed ``job-failure`` envelope.

Everything stateful lives in the job table; the reaper itself holds
nothing, so running it twice (two service instances pointed at one
database, or a restart racing a leftover) is harmless — the
transactional requeue means each expired lease is recovered exactly
once.

For the same reason a *failed* sweep is harmless: the periodic loop
logs it, counts it and tries again a second later — a transient database
error (or an injected fault at the ``reaper.sweep`` crash point) must
never take the recovery authority down with it.
"""

from __future__ import annotations

import logging
import threading

from repro.faults import crashpoints
from repro.service.jobs import JobTable

__all__ = ["Reaper"]

logger = logging.getLogger(__name__)

#: seconds between two background sweeps.
_SWEEP_INTERVAL_S = 1.0

_SWEEP_POINT = crashpoints.register_crashpoint(
    "reaper.sweep",
    "a recovery sweep is starting — a crash here must leave every "
    "expired lease recoverable by the next sweep",
    actions=("kill", "raise-operational", "raise-oserror"),
    scenario="reaper",
)


class Reaper(threading.Thread):
    """Periodically recover expired leases until stopped."""

    def __init__(self, table: JobTable):
        super().__init__(daemon=True, name="lease-reaper")
        self.table = table
        #: lifetime counters, surfaced by /readyz for observability.
        self.requeued = 0
        self.failed = 0
        #: sweeps that raised (transient database trouble); the loop
        #: survives them and retries at the next sweep.
        self.errors = 0
        #: not ``_stop``, which would shadow the method join() calls.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(_SWEEP_INTERVAL_S):
            try:
                self.sweep()
            except Exception:
                self.errors += 1
                logger.exception(
                    "reaper sweep failed; retrying in %.1fs", _SWEEP_INTERVAL_S
                )

    def sweep(self) -> None:
        """One recovery pass (also callable directly, e.g. at startup)."""
        crashpoints.fire(_SWEEP_POINT)
        requeued, failed = self.table.requeue_expired()
        self.requeued += len(requeued)
        self.failed += len(failed)
        for job_id in requeued:
            logger.warning("lease expired: requeued job %s", job_id)
        for job_id in failed:
            logger.error(
                "lease expired with retry budget exhausted: "
                "job %s marked failed", job_id
            )

    def stop(self) -> None:
        self._halt.set()
