"""Deterministic discrete-event simulation core.

This subpackage is a small, self-contained process-oriented discrete-event
engine (in the spirit of SimPy, written from scratch for this project).
Simulated activities are Python generators that ``yield`` effect objects
(:mod:`repro.simcore.effects`); the :class:`~repro.simcore.engine.Engine`
interprets the effects, advances virtual time (integer nanoseconds) and
resumes processes.

Design notes (see DESIGN.md §5):

* **Event-driven waits.** A process spinning on a memory cell does not
  busy-tick the event loop; it blocks on a :class:`~repro.simcore.signal.Signal`
  and is re-evaluated when the signal fires.  Cost accounting for spin
  *observations* is done by the caller (the GPU model charges a read cost
  per wake-up), keeping the engine mechanism-only.
* **Determinism.** Ties in virtual time are broken by a monotonically
  increasing sequence number, so runs are exactly reproducible.
* **Deadlock detection.** If the event heap drains while live processes
  remain blocked, the engine raises :class:`repro.errors.DeadlockError`
  naming each blocked process — the simulated analogue of a hung grid.
"""

from repro.simcore.effects import (
    Acquire,
    Delay,
    Effect,
    Fire,
    Join,
    Release,
    Spawn,
    WaitSpec,
    WaitUntil,
)
from repro.simcore.engine import Engine
from repro.simcore.fastpath import (
    ENGINE_MODE_ENV,
    ENGINE_MODES,
    FastEngine,
    FlagIndex,
    make_engine,
    resolve_engine_mode,
    use_engine_mode,
)
from repro.simcore.process import Cancelled, Process, ProcessState
from repro.simcore.resource import Resource
from repro.simcore.signal import Signal
from repro.simcore.trace import Span, Trace

__all__ = [
    "ENGINE_MODE_ENV",
    "ENGINE_MODES",
    "Acquire",
    "Cancelled",
    "Delay",
    "Effect",
    "Engine",
    "FastEngine",
    "Fire",
    "FlagIndex",
    "Join",
    "Process",
    "ProcessState",
    "Release",
    "Resource",
    "Signal",
    "Span",
    "Spawn",
    "Trace",
    "WaitSpec",
    "WaitUntil",
    "make_engine",
    "resolve_engine_mode",
    "use_engine_mode",
]
