"""The resilient runtime: retry with backoff, then graceful degradation.

Without a policy, :func:`repro.run` is single-attempt: an injected fault
or a stalled barrier surfaces as one typed exception and the run is
lost.  Passing ``retry=`` or ``degrade=`` wraps the attempt in the
recovery policy a production driver stack would apply:

1. **Retry with backoff** (:class:`RetryPolicy`).  A failed attempt's
   device is discarded, stalled or killed, and every attempt calls
   :meth:`~repro.algorithms.base.RoundAlgorithm.reset` through ``run`` —
   the checkpoint/restore step — so a relaunch starts from pristine
   state on a fresh device.  Transient faults (driver-kill,
   atomic-drop, mem-corrupt, spurious-wakeup) are *consumed* by the
   shared :class:`~repro.faults.FaultPlan`, so a retry genuinely
   survives them.  Each relaunch charges an exponentially growing
   virtual-time backoff, accumulated into
   :attr:`~repro.harness.runner.RunResult.retry_overhead_ns`.
2. **Graceful degradation** (:class:`DegradePolicy`).  Persistent faults
   (a hung block re-hangs on every relaunch) exhaust the retry budget;
   the runtime then swaps the barrier for the strategy's declared
   fallback (:meth:`~repro.sync.base.SyncStrategy.fallback_strategy` —
   device barriers fall back to the host-side ``cpu-implicit`` barrier,
   which a hung *barrier round* cannot deadlock because the kernel
   boundary itself synchronizes, paper §4.1).  An
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
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.algorithms.base import VerificationError
from repro.errors import (
    BarrierTimeoutError,
    ConfigError,
    FaultError,
    OccupancyError,
    RetryExhaustedError,
)
from repro.harness.runner import RecoveryEvent, RunResult
from repro.sync.base import SyncStrategy

__all__ = ["DegradePolicy", "RetryPolicy"]

#: failures one relaunch can plausibly outrun.
_RETRYABLE = (BarrierTimeoutError, FaultError, VerificationError)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to retry a failed launch before giving up.

    ``backoff_ns`` is the virtual-time pause charged before the first
    relaunch; each further relaunch multiplies it by ``backoff_factor``
    (a driver would wait for the device to settle after a kill).
    """

    max_attempts: int = 3
    backoff_ns: int = 10_000
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_ns < 0 or self.backoff_factor < 1.0:
            raise ConfigError(
                "need backoff_ns >= 0 and backoff_factor >= 1"
            )

    def backoff_for(self, attempt: int) -> int:
        """Backoff (ns) charged before relaunch number ``attempt + 1``."""
        return int(self.backoff_ns * self.backoff_factor ** (attempt - 1))


@dataclass(frozen=True)
class DegradePolicy:
    """Whether (and to what) to degrade once retries are exhausted.

    ``fallback`` overrides the strategy's own
    :meth:`~repro.sync.base.SyncStrategy.fallback_strategy`.
    """

    enabled: bool = True
    fallback: Optional[str] = None


def _run_resilient(
    attempt: Callable[[Union[str, SyncStrategy]], RunResult],
    strategy: SyncStrategy,
    retry: Optional[RetryPolicy],
    degrade: Optional[DegradePolicy],
    faults,
) -> RunResult:
    """Drive ``attempt`` with retry-with-backoff and graceful degradation.

    ``attempt`` is one launch of an already validated configuration
    under the given strategy (built by :func:`repro.harness.runner.run`
    when ``retry=`` or ``degrade=`` is passed; a missing policy takes
    its defaults).  Returns the first successful attempt's
    :class:`RunResult`, annotated with :attr:`~RunResult.attempts`,
    :attr:`~RunResult.degraded`, :attr:`~RunResult.retry_overhead_ns`
    and the full :attr:`~RunResult.recovery` history; raises
    :class:`~repro.errors.RetryExhaustedError` when nothing worked.
    """
    retry = retry or RetryPolicy()
    degrade = degrade or DegradePolicy()

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

    while attempt_no < retry.max_attempts:
        attempt_no += 1
        try:
            return finish(attempt(strategy), None)
        except OccupancyError as exc:
            # The grid can never be co-resident: no relaunch helps.
            history.append(f"attempt {attempt_no}: {exc}")
            break
        except _RETRYABLE as exc:
            history.append(f"attempt {attempt_no}: {exc}")
            if attempt_no >= retry.max_attempts:
                break
            backoff = retry.backoff_for(attempt_no)
            overhead_ns += backoff
            events.append(
                RecoveryEvent("retry", attempt_no, overhead_ns, str(exc))
            )
            if faults is not None:
                faults.next_attempt()

    fallback = degrade.fallback or strategy.fallback_strategy()
    if degrade.enabled and fallback is not None:
        events.append(
            RecoveryEvent(
                "degrade",
                attempt_no,
                overhead_ns,
                f"{strategy.name} -> {fallback}",
            )
        )
        if faults is not None:
            faults.next_attempt()
        attempt_no += 1
        try:
            return finish(attempt(fallback), strategy.name)
        except (OccupancyError,) + _RETRYABLE as exc:
            history.append(f"fallback {fallback}: {exc}")

    raise RetryExhaustedError(strategy.name, attempt_no, history)
