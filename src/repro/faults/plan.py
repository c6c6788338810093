"""Seeded fault plans: deterministic, replayable adversity.

A :class:`FaultPlan` is to failures what
:class:`repro.sanitize.ScheduleFuzzer` is to schedules: everything is a
pure function of the seed, so the exact same faults fire at the exact
same points on every replay — a chaos campaign failure report carries
the plan seed that reproduces it.

The taxonomy (:data:`FAULT_KINDS`) models the ways real GPU runs go
wrong around inter-block barriers:

* ``straggler`` — one block's compute runs slower by a factor (thermal
  throttling, partial-SM contention).  Persistent: applies every round.
* ``hang`` — one block never reaches the barrier of a given round (the
  paper's §5 hazard: a non-preemptive block parked forever).
  Persistent: the block hangs again on every retry.
* ``driver-kill`` — the driver kills the kernel at a virtual time after
  launch (display watchdog, ECC event).  Transient: fires once per plan,
  so a relaunch survives.
* ``spurious-wakeup`` — a spin loop wakes extra times without its
  predicate holding and pays the observation latency each time.
  Transient and benign-by-design: costs time, never correctness.
* ``atomic-drop`` — one ``atomicAdd``'s read-modify-write loses its
  store (transient memory-controller fault).  Fires once per plan.
* ``mem-corrupt`` — one global-memory store lands as zeros (torn/cleared
  write).  Fires once per plan.

Transient kinds are *consumed*: after firing once they never fire again
for the lifetime of the plan object, which is exactly what makes
retry-with-relaunch a sound recovery policy for them.  Persistent kinds
fire on every attempt, which is what forces graceful degradation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import FaultError

__all__ = [
    "FAULT_KINDS",
    "PERSISTENT_KINDS",
    "TRANSIENT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "fault_plans",
]

#: fault kind → one-line description (mirrors ``sanitize.BUG_CLASSES``).
FAULT_KINDS: Dict[str, str] = {
    "straggler": "one block computes slower by a factor, every round",
    "hang": "one block never reaches the barrier of one round",
    "driver-kill": "the driver kills the kernel at a virtual time",
    "spurious-wakeup": "a spin loop wakes extra times, paying latency",
    "atomic-drop": "one atomicAdd loses its store (transient)",
    "mem-corrupt": "one global store lands as zeros (transient)",
}

#: kinds that fire again on every relaunch (retry cannot outrun them).
PERSISTENT_KINDS = frozenset({"straggler", "hang"})
#: kinds consumed after firing once (a relaunch survives them).
TRANSIENT_KINDS = frozenset(FAULT_KINDS) - PERSISTENT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Fields are kind-specific: ``block``/``round`` target the injection
    site, ``factor`` scales straggler compute, ``at_ns`` is the
    driver-kill time relative to kernel start, ``count`` is how many
    occurrences a transient kind covers (e.g. spurious wakeups).
    """

    kind: str
    block: Optional[int] = None
    round: Optional[int] = None  #: None = every round (straggler)
    factor: float = 1.0
    at_ns: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(sorted(FAULT_KINDS))}"
            )
        if self.kind == "straggler" and self.factor < 1.0:
            raise FaultError(
                f"straggler factor must be >= 1, got {self.factor}"
            )
        if self.count < 1:
            raise FaultError(f"count must be >= 1, got {self.count}")
        if self.at_ns < 0:
            raise FaultError(f"at_ns must be >= 0, got {self.at_ns}")

    def describe(self) -> str:
        """Compact human identity of this fault."""
        if self.kind == "straggler":
            return f"straggler(block {self.block}, ×{self.factor:.1f})"
        if self.kind == "hang":
            return f"hang(block {self.block}, round {self.round})"
        if self.kind == "driver-kill":
            return f"driver-kill(at +{self.at_ns} ns)"
        if self.kind == "spurious-wakeup":
            return f"spurious-wakeup(block {self.block}, ×{self.count})"
        if self.kind == "atomic-drop":
            return f"atomic-drop(block {self.block})"
        return f"mem-corrupt(block {self.block})"


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired during a run."""

    kind: str
    description: str
    attempt: int  #: 1-based attempt the fault fired in
    at_ns: int  #: virtual time of the injection


class FaultPlan:
    """A seeded set of faults plus their consumption state.

    Arm a plan by passing it to ``Device(faults=...)`` (the harness
    does this via ``run(..., faults=plan)``).  Injection hooks in
    :class:`repro.gpu.context.BlockCtx`, :meth:`repro.gpu.device.Device.
    kernel_process` and :meth:`repro.sync.base.SyncStrategy.barrier`
    consult the plan; every hook is behind a single
    ``device.faults is not None`` check, so an unarmed device pays
    nothing.

    The plan is *stateful across attempts*: transient faults are
    consumed when they fire, so the same plan object threaded through a
    retry loop models a transient glitch that does not recur, while
    persistent faults re-fire on every relaunch.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: Optional[int] = None):
        self.specs: List[FaultSpec] = list(specs)
        #: the seed that generated this plan (None for hand-built plans).
        self.seed = seed
        #: faults that actually fired, in firing order.
        self.fired: List[FiredFault] = []
        #: current attempt (bumped by ``next_attempt``; 1-based).
        self.attempt = 1
        #: spec index → remaining occurrences (transient kinds only).
        self._remaining: Dict[int, int] = {
            i: spec.count
            for i, spec in enumerate(self.specs)
            if spec.kind in TRANSIENT_KINDS
        }
        #: (spec index, attempt) pairs already recorded for persistent
        #: kinds, so a hang parked forever is reported once per attempt.
        self._recorded: set = set()
        #: index of the armed driver-kill spec (recorded when it fires).
        self._kill_spec: Optional[int] = None
        self._now = lambda: 0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        num_blocks: int,
        rounds: int,
        kinds: Optional[Sequence[str]] = None,
        max_faults: int = 3,
        horizon_ns: int = 20_000,
    ) -> "FaultPlan":
        """A deterministic plan of 1..``max_faults`` faults from ``seed``.

        ``kinds`` restricts the taxonomy (default: all).  ``horizon_ns``
        bounds driver-kill times — pick roughly the expected kernel
        duration so kills land mid-run rather than after the fact.
        """
        if num_blocks < 1 or rounds < 1:
            raise FaultError("need num_blocks >= 1 and rounds >= 1")
        if max_faults < 1:
            raise FaultError(f"max_faults must be >= 1, got {max_faults}")
        pool = list(kinds) if kinds is not None else sorted(FAULT_KINDS)
        for kind in pool:
            if kind not in FAULT_KINDS:
                raise FaultError(f"unknown fault kind {kind!r}")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        for _ in range(rng.randint(1, max_faults)):
            kind = rng.choice(pool)
            block = rng.randrange(num_blocks)
            if kind == "straggler":
                specs.append(
                    FaultSpec(
                        kind, block=block, factor=round(rng.uniform(2.0, 8.0), 2)
                    )
                )
            elif kind == "hang":
                specs.append(
                    FaultSpec(kind, block=block, round=rng.randrange(rounds))
                )
            elif kind == "driver-kill":
                specs.append(FaultSpec(kind, at_ns=rng.randrange(1, horizon_ns)))
            elif kind == "spurious-wakeup":
                specs.append(
                    FaultSpec(kind, block=block, count=rng.randint(1, 8))
                )
            else:  # atomic-drop / mem-corrupt
                specs.append(FaultSpec(kind, block=block))
        return cls(specs, seed=seed)

    def bind_clock(self, now) -> None:
        """Attach the armed device's clock (for fired-fault timestamps)."""
        self._now = now

    def next_attempt(self) -> None:
        """Mark the start of a relaunch (retry loop bookkeeping)."""
        self.attempt += 1

    # -- introspection -----------------------------------------------------

    @property
    def descriptions(self) -> List[str]:
        """One line per planned fault."""
        return [spec.describe() for spec in self.specs]

    @property
    def fired_kinds(self) -> List[str]:
        """Kinds that actually fired, de-duplicated, in first-fire order."""
        seen: List[str] = []
        for f in self.fired:
            if f.kind not in seen:
                seen.append(f.kind)
        return seen

    @property
    def persistent(self) -> bool:
        """True when any planned fault re-fires on every relaunch."""
        return any(spec.kind in PERSISTENT_KINDS for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, "
            f"[{', '.join(self.descriptions)}], fired={len(self.fired)})"
        )

    # -- injection hooks (called only from armed devices) ------------------

    def _record(self, spec_idx: int) -> None:
        spec = self.specs[spec_idx]
        self.fired.append(
            FiredFault(spec.kind, spec.describe(), self.attempt, self._now())
        )

    def _consume(self, spec_idx: int) -> bool:
        """Take one occurrence of a transient spec; False when exhausted."""
        left = self._remaining.get(spec_idx, 0)
        if left <= 0:
            return False
        self._remaining[spec_idx] = left - 1
        self._record(spec_idx)
        return True

    def scale_compute(self, block_id: int, cost_ns: float) -> float:
        """Straggler injection: scale one block's compute cost."""
        for i, spec in enumerate(self.specs):
            if spec.kind == "straggler" and spec.block == block_id:
                key = (i, self.attempt)
                if key not in self._recorded:
                    self._recorded.add(key)
                    self._record(i)
                cost_ns = cost_ns * spec.factor
        return cost_ns

    def should_hang(self, block_id: int, round_idx: int) -> bool:
        """Hang injection: does this block vanish before this barrier?"""
        for i, spec in enumerate(self.specs):
            if (
                spec.kind == "hang"
                and spec.block == block_id
                and spec.round == round_idx
            ):
                key = (i, self.attempt)
                if key not in self._recorded:
                    self._recorded.add(key)
                    self._record(i)
                return True
        return False

    def take_driver_kill(self) -> Optional[int]:
        """Driver-kill injection: kill time (ns after launch), once.

        Consumed at arming time — exactly one kernel launch per plan is
        targeted, mirroring a one-off driver event.
        """
        for i, spec in enumerate(self.specs):
            if spec.kind == "driver-kill" and self._remaining.get(i, 0) > 0:
                self._remaining[i] = 0
                # Recorded by the killer process when it actually fires.
                self._kill_spec = i
                return spec.at_ns
        return None

    def note_driver_kill_fired(self) -> None:
        """The armed driver-kill actually killed a running kernel."""
        if self._kill_spec is not None:
            self._record(self._kill_spec)

    def spurious_polls(self, block_id: int) -> int:
        """Spurious-wakeup injection: extra spin polls to charge, once."""
        for i, spec in enumerate(self.specs):
            if spec.kind == "spurious-wakeup" and spec.block == block_id:
                if self._remaining.get(i, 0) > 0:
                    extra = self._remaining[i]
                    self._remaining[i] = 0
                    self._record(i)
                    return extra
        return 0

    def drop_atomic(self, block_id: int) -> bool:
        """Atomic-drop injection: lose this atomicAdd's store?"""
        for i, spec in enumerate(self.specs):
            if spec.kind == "atomic-drop" and spec.block == block_id:
                return self._consume(i)
        return False

    def corrupt_store(self, block_id: int, value: Any) -> Any:
        """Mem-corrupt injection: replace one store's value with zeros."""
        for i, spec in enumerate(self.specs):
            if spec.kind == "mem-corrupt" and spec.block == block_id:
                if self._consume(i):
                    import numpy as np

                    corrupted = np.zeros_like(np.asarray(value))
                    return corrupted if corrupted.ndim else corrupted.item()
        return value


def fault_plans(
    seed: int,
    n: int,
    num_blocks: int,
    rounds: int,
    kinds: Optional[Sequence[str]] = None,
    **kwargs: Any,
) -> Iterator[FaultPlan]:
    """Yield ``n`` fresh plans with seeds derived from ``seed``.

    Uses the sanitizer's stable seed-splitting
    (:func:`repro.sanitize.fuzzer.derive_seeds`): plan ``i`` of a long
    campaign equals plan ``i`` of a short one, so campaign failures
    replay cheaply.
    """
    from repro.sanitize.fuzzer import derive_seeds

    for derived in derive_seeds(seed, n):
        yield FaultPlan.generate(
            derived, num_blocks, rounds, kinds=kinds, **kwargs
        )
