"""The resilient runtime: retry with backoff, then graceful degradation.

Without recovery, :func:`repro.run` is single-attempt: an injected fault
or a stalled barrier surfaces as one typed exception and the run is
lost.  ``recover=True`` wraps the attempt in the one recovery policy a
production driver stack would apply:

1. **Retry with backoff.**  Up to :data:`MAX_ATTEMPTS` launches of the
   requested strategy.  A failed attempt's device is discarded, stalled
   or killed, and every attempt calls
   :meth:`~repro.algorithms.base.RoundAlgorithm.reset` through ``run`` —
   the checkpoint/restore step — so a relaunch starts from pristine
   state on a fresh device.  Transient faults (driver-kill,
   atomic-drop, mem-corrupt, spurious-wakeup) are *consumed* by the
   shared :class:`~repro.faults.FaultPlan`, so a retry genuinely
   survives them.  Relaunch ``k`` charges a virtual-time backoff of
   ``BACKOFF_NS * 2 ** (k - 1)``, accumulated into
   :attr:`~repro.harness.runner.RunResult.retry_overhead_ns` (a driver
   waits for the device to settle after a kill).
2. **Graceful degradation.**  Persistent faults (a hung block re-hangs
   on every relaunch) exhaust the attempts; a device strategy then
   reruns on :data:`FALLBACK`, the host-side ``cpu-implicit`` barrier,
   which a hung *barrier round* cannot deadlock because the kernel
   boundary itself synchronizes (paper §4.1).  Host strategies have
   nothing safer to fall back to.  An
   :class:`~repro.errors.OccupancyError` — the grid can never be
   co-resident — skips the pointless retries and degrades immediately.

Every action is recorded as a
:class:`~repro.harness.runner.RecoveryEvent` on the returned result;
if the fallback also fails (or none exists) the whole history surfaces
in a :class:`~repro.errors.RetryExhaustedError`.

This module recovers *simulated* failures — faults injected into the
virtual device.  Its process-level sibling is the supervised executor
(:mod:`repro.parallel.executor`): real worker-process deaths and
Ctrl-C are retried, journaled as poison or journaled for resume
there, with the same retry-then-contain philosophy
(docs/resilience.md).
"""

from __future__ import annotations
from typing import Callable, List, Optional, Union

from repro.algorithms.base import VerificationError
from repro.errors import (
    BarrierTimeoutError,
    FaultError,
    OccupancyError,
    RetryExhaustedError,
)
from repro.harness.runner import RecoveryEvent, RunResult
from repro.sync.base import SyncStrategy

__all__ = ["BACKOFF_NS", "FALLBACK", "MAX_ATTEMPTS"]

#: launches of the requested strategy before degrading.
MAX_ATTEMPTS = 3
#: virtual-time backoff (ns) before the first relaunch; doubles after.
BACKOFF_NS = 10_000
#: the barrier a device strategy degrades to.
FALLBACK = "cpu-implicit"

#: failures one relaunch can plausibly outrun.
_RETRYABLE = (BarrierTimeoutError, FaultError, VerificationError)


def _run_resilient(
    attempt: Callable[[Union[str, SyncStrategy]], RunResult],
    strategy: SyncStrategy,
    faults,
) -> RunResult:
    """Drive ``attempt`` with retry-with-backoff and graceful degradation.

    ``attempt`` is one launch of an already validated configuration
    under the given strategy (built by :func:`repro.harness.runner.run`
    when ``recover=True``).  Returns the first successful attempt's
    :class:`RunResult`, annotated with :attr:`~RunResult.attempts`,
    :attr:`~RunResult.degraded`, :attr:`~RunResult.retry_overhead_ns`
    and the full :attr:`~RunResult.recovery` history; raises
    :class:`~repro.errors.RetryExhaustedError` when nothing worked.
    """
    events: List[RecoveryEvent] = []
    history: List[str] = []
    overhead_ns = 0
    attempt_no = 0

    def finish(result: RunResult, degraded_from: Optional[str]) -> RunResult:
        result.attempts = attempt_no
        result.retry_overhead_ns = overhead_ns
        result.total_ns += overhead_ns
        result.recovery = events
        if degraded_from is not None:
            result.degraded = True
            result.degraded_from = degraded_from
        if faults is not None:
            result.faults_fired = len(faults.fired)
        return result

    while attempt_no < MAX_ATTEMPTS:
        attempt_no += 1
        try:
            return finish(attempt(strategy), None)
        except OccupancyError as exc:
            # The grid can never be co-resident: no relaunch helps.
            history.append(f"attempt {attempt_no}: {exc}")
            break
        except _RETRYABLE as exc:
            history.append(f"attempt {attempt_no}: {exc}")
            if attempt_no >= MAX_ATTEMPTS:
                break
            overhead_ns += BACKOFF_NS * 2 ** (attempt_no - 1)
            events.append(
                RecoveryEvent("retry", attempt_no, overhead_ns, str(exc))
            )
            if faults is not None:
                faults.next_attempt()

    if strategy.mode == "device":
        events.append(
            RecoveryEvent(
                "degrade",
                attempt_no,
                overhead_ns,
                f"{strategy.name} -> {FALLBACK}",
            )
        )
        if faults is not None:
            faults.next_attempt()
        attempt_no += 1
        try:
            return finish(attempt(FALLBACK), strategy.name)
        except (OccupancyError,) + _RETRYABLE as exc:
            history.append(f"fallback {FALLBACK}: {exc}")

    raise RetryExhaustedError(strategy.name, attempt_no, history)
