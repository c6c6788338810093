"""Block scheduling: occupancy-limited, non-preemptive SM slots.

A kernel's blocks contend for SM slots.  Occupancy (blocks per SM) comes
from :meth:`repro.gpu.config.DeviceConfig.blocks_per_sm`; total co-resident
capacity is ``occupancy × num_sms``.  Blocks hold their slot until their
program finishes — **no preemption** — so a device-side barrier whose grid
exceeds co-resident capacity starves: resident blocks spin on the barrier
forever while queued blocks wait for a slot.  The engine detects this and
raises :class:`repro.errors.DeadlockError`, mirroring a hung launch on
real hardware (paper §5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import OccupancyError, SimulationError
from repro.gpu.config import DeviceConfig
from repro.gpu.kernel import KernelSpec
from repro.simcore.resource import Resource

__all__ = ["BlockScheduler", "SmPlacement"]


class SmPlacement:
    """Tracks which SM hosts each running block of one kernel.

    Capacity gating is done by the kernel's aggregate slot resource (the
    sum of per-SM capacities — equivalent for homogeneous blocks); this
    tracker adds the *which SM* bookkeeping on top: blocks are placed on
    the least-loaded SM (lowest index on ties), never exceeding the
    per-SM occupancy, and the assignment is recorded for introspection
    (``placements``) and handed to the block as ``ctx.sm_id``; no
    simulator code or trace span reads it.

    ``tiebreak`` overrides the lowest-index-on-ties rule: it is called
    with the list of equally-least-loaded SM ids and returns the chosen
    one.  Hardware makes no ordering promise here, so a seeded permuter
    (:class:`repro.sanitize.ScheduleFuzzer`) uses this hook to explore
    adversarial placements deterministically.
    """

    def __init__(
        self,
        kernel_name: str,
        num_sms: int,
        per_sm: int,
        tiebreak: Optional[Callable[[List[int]], int]] = None,
    ):
        if per_sm < 1:
            raise SimulationError(
                f"placement for {kernel_name!r} needs per_sm >= 1"
            )
        self.kernel_name = kernel_name
        self.num_sms = num_sms
        self.per_sm = per_sm
        self._tiebreak = tiebreak
        self._load: List[int] = [0] * num_sms
        #: block id → SM id for every block that has been placed.
        self.placements: Dict[int, int] = {}

    def place(self, block_id: int) -> int:
        """Assign a block to the least-loaded SM; returns the SM id."""
        if block_id in self.placements:
            raise SimulationError(
                f"block {block_id} of {self.kernel_name!r} placed twice"
            )
        load = self._load
        least = min(load)
        if self._tiebreak is None:
            sm = load.index(least)
        else:
            candidates = [i for i in range(self.num_sms) if load[i] == least]
            sm = self._tiebreak(candidates)
            if sm not in candidates:
                raise SimulationError(
                    f"placement tiebreak chose SM{sm}, not among {candidates}"
                )
        if load[sm] >= self.per_sm:
            raise SimulationError(
                f"placement overflow on SM{sm} for {self.kernel_name!r} "
                "(aggregate gate out of sync)"
            )
        load[sm] += 1
        self.placements[block_id] = sm
        return sm

    def release(self, block_id: int) -> None:
        """A block finished; free its SM slot."""
        sm = self.placements.get(block_id)
        if sm is None:
            raise SimulationError(
                f"block {block_id} of {self.kernel_name!r} released "
                "without placement"
            )
        self._load[sm] -= 1

    @property
    def resident_counts(self) -> List[int]:
        """Blocks currently resident on each SM."""
        return list(self._load)


class BlockScheduler:
    """Computes occupancy and builds the per-kernel slot resource.

    ``fuzz`` (a :class:`repro.sanitize.ScheduleFuzzer` or anything with
    an ``sm_tiebreak(candidates) -> int`` method) perturbs placement
    tie-breaking; ``None`` keeps the deterministic lowest-index rule.
    """

    def __init__(self, config: DeviceConfig, fuzz=None):
        self.config = config
        self.fuzz = fuzz

    def occupancy(self, spec: KernelSpec) -> int:
        """Blocks of this kernel that fit on one SM (may be 0)."""
        return self.config.blocks_per_sm(
            spec.block_threads,
            spec.shared_mem_per_block,
            spec.registers_per_thread,
        )

    def co_resident_capacity(self, spec: KernelSpec) -> int:
        """Blocks of this kernel that can execute simultaneously."""
        return self.occupancy(spec) * self.config.num_sms

    def validate(self, spec: KernelSpec) -> None:
        """Reject kernels that can never be scheduled at all."""
        if spec.block_threads > self.config.max_threads_per_block:
            raise OccupancyError(
                f"kernel {spec.name!r}: {spec.block_threads} threads/block "
                f"exceeds the device limit of "
                f"{self.config.max_threads_per_block}"
            )
        if self.occupancy(spec) == 0:
            raise OccupancyError(
                f"kernel {spec.name!r}: one block "
                f"({spec.block_threads} threads, "
                f"{spec.shared_mem_per_block} B shared) exceeds a single "
                "SM's resources"
            )

    def slots_for(self, spec: KernelSpec) -> Resource:
        """A fresh FIFO slot resource sized to this kernel's capacity."""
        self.validate(spec)
        return Resource(
            f"slots:{spec.name}", capacity=self.co_resident_capacity(spec)
        )

    def placement_for(self, spec: KernelSpec) -> SmPlacement:
        """A fresh per-SM placement tracker for this kernel."""
        self.validate(spec)
        tiebreak = self.fuzz.sm_tiebreak if self.fuzz is not None else None
        return SmPlacement(
            spec.name, self.config.num_sms, self.occupancy(spec), tiebreak
        )
