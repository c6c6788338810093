"""Deterministic fault injection and the resilient-runtime primitives.

The robustness counterpart of :mod:`repro.sanitize`: where the
sanitizer asks *"does this barrier have bugs?"*, this package asks
*"what happens when the world around a correct barrier misbehaves?"* —
straggling and hung blocks, driver kills, spurious wakeups, dropped
atomics, corrupted stores.

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seeded, replayable
  fault sets with transient-vs-persistent consumption semantics.
* :mod:`repro.faults.chaos` — :func:`chaos_campaign`: N seeded plans
  against the full retry/degrade runtime, cross-checked against the
  sanitizer's detectors; any unexplained outcome fails the campaign.
* :mod:`repro.faults.crashpoints` — :class:`CrashPlan`: named crash
  points inside the *host-side* durability layer (job table, journal,
  cache, reaper, worker), fired deterministically by a seeded plan.
* :mod:`repro.faults.crashtest` — the crash matrix: every registered
  crash point fired against a live multi-host worker fleet, recovery
  invariants asserted (import it directly; it pulls in the service
  stack, so the package does not import it eagerly).

The one recovery policy itself (retry with backoff, then graceful
degradation to ``cpu-implicit``) lives in :mod:`repro.harness.resilient`,
next to the runner it wraps; ``repro.run(..., recover=True)`` turns it
on.
"""

from repro.faults.chaos import ChaosReport, ChaosRunRecord, chaos_campaign
from repro.faults.crashpoints import (
    CRASH_ACTIONS,
    CRASHPOINTS,
    CrashPlan,
    Crashpoint,
    CrashSpec,
    FiredCrash,
    register_crashpoint,
)
from repro.faults.plan import (
    FAULT_KINDS,
    PERSISTENT_KINDS,
    TRANSIENT_KINDS,
    FaultPlan,
    FaultSpec,
    FiredFault,
    fault_plans,
)

__all__ = [
    "CRASH_ACTIONS",
    "CRASHPOINTS",
    "ChaosReport",
    "ChaosRunRecord",
    "CrashPlan",
    "Crashpoint",
    "CrashSpec",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FiredCrash",
    "FiredFault",
    "PERSISTENT_KINDS",
    "TRANSIENT_KINDS",
    "chaos_campaign",
    "fault_plans",
    "register_crashpoint",
]
