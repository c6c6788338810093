"""The barrier watchdog: typed, recoverable stall detection.

The engine's built-in deadlock detection only fires when the event heap
drains — correct, but terminal: the run dies with
:class:`~repro.errors.DeadlockError` and nothing can be salvaged.  A
:class:`BarrierWatchdog` turns the same condition into a *recoverable*
failure.  It is an ordinary simulated process that wakes every
``deadline_ns`` of virtual time and asks the engine two questions:

1. does any live process other than me have a scheduled wakeup
   (:meth:`~repro.simcore.engine.Engine.pending_events`)?  If yes, the
   simulation can still make progress — go back to sleep.
2. otherwise, is anything parked
   (:attr:`~repro.simcore.engine.Engine.blocked_processes`)?  If yes,
   nothing can ever wake it — this is a certain stall.

On a stall it kills the in-flight kernels exactly like the driver
watchdog (cancelling block processes frees their SM slots and wakes
joiners with a :class:`~repro.simcore.process.Cancelled` sentinel), then
finishes.  The run loop drains cleanly and the harness raises a typed
:class:`~repro.errors.BarrierTimeoutError` naming every stuck process —
including any injected fault, whose ``waiting_on`` reason carries the
fault's name.

Because question 1 is exact (a pending event *is* future progress),
the watchdog never false-positives on stragglers or long computes: the
deadline only sets detection latency, not a tightness/correctness
trade-off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.simcore.effects import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device
    from repro.gpu.host import KernelHandle
    from repro.simcore.process import Process

__all__ = ["DEFAULT_BARRIER_DEADLINE_NS", "BarrierWatchdog"]

#: default stall-check cadence (virtual ns).  Virtual time is free, so
#: this only trades detection latency against a handful of extra events.
DEFAULT_BARRIER_DEADLINE_NS = 1_000_000


class BarrierWatchdog:
    """Detects a globally stalled run and kills the kernels in flight."""

    def __init__(
        self,
        device: "Device",
        deadline_ns: int = DEFAULT_BARRIER_DEADLINE_NS,
        strategy_name: str = "unknown",
    ):
        if deadline_ns < 1:
            raise ConfigError(f"deadline_ns must be >= 1, got {deadline_ns}")
        self.device = device
        self.deadline_ns = deadline_ns
        self.strategy_name = strategy_name
        #: kernel handles to kill on a stall (appended by the runner).
        self.handles: List["KernelHandle"] = []
        #: True once the watchdog detected a stall and killed the run.
        self.fired = False
        #: virtual time of the stall detection.
        self.fired_at: Optional[int] = None
        #: the parked processes at detection time.
        self.stuck: List[Tuple[str, str]] = []
        #: stall checks performed (diagnostics).
        self.checks = 0
        self._process: Optional["Process"] = None

    def arm(self) -> "Process":
        """Spawn the watchdog process on the device's engine."""
        self._process = self.device.engine.spawn(
            self._run(), name="barrier-watchdog"
        )
        return self._process

    def disarm(self) -> None:
        """Cancel the watchdog (call when the kernel drains normally)."""
        if self._process is not None and self._process.alive:
            self.device.engine.cancel(self._process, "kernel drained")

    def watch(self, handle: "KernelHandle") -> None:
        """Register a kernel to kill if the run stalls."""
        self.handles.append(handle)

    # -- the watchdog process ----------------------------------------------

    def _run(self) -> Generator:
        engine = self.device.engine
        while True:
            yield Delay(self.deadline_ns)
            self.checks += 1
            ignore = (self._process,) if self._process is not None else ()
            if engine.pending_events(ignore=ignore) > 0:
                continue  # someone else will run: progress is possible
            blocked = engine.blocked_processes
            if not blocked:
                return  # everything finished; we outlived the run
            # Certain stall: no pending work, processes parked forever.
            self.fired = True
            self.fired_at = engine.now
            self.stuck = blocked
            reason = (
                f"barrier watchdog killed {self.strategy_name} after "
                f"{self.deadline_ns} ns without progress"
            )
            for handle in self.handles:
                handle.kill(engine, reason)
            return
