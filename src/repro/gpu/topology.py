"""Declarative model of where threads live (the sync domains of a device).

The paper's barriers assume one GTX 280: a flat bag of SMs where every
block reaches every other block at uniform cost and co-residency means
one block per SM.  A :class:`Topology` makes those assumptions explicit
and overridable, so the same :class:`~repro.sync.base.SyncStrategy`
implementations resolve *costs* and *reachability* through the topology
instead of hard-coding the single-device rules:

* ``kind="single-device"`` — the paper's world.  One sync domain,
  zero crossing latency.
* ``kind="multi-device"`` — several devices behind one logical config
  (``num_sms`` counts SMs across the whole system).  Blocks are
  partitioned into one domain per device; traffic that crosses domains
  (a remote ``atomicAdd``, observing a flag homed on the other device)
  pays ``crossing_ns`` of modeled interconnect latency.
* ``kind="cluster"`` — a many-core chip whose cores sit in clusters
  with cheap local synchronization and an expensive global interconnect
  (the 1024-core RISC-V cluster machines).  Domains are clusters;
  hierarchical barriers (:class:`~repro.sync.cluster.GpuClusterTreeSync`)
  run a local phase per domain, then a global phase.

Co-residency is likewise a policy, not a constant:

* ``co_residency="exclusive"`` — the paper's §5 rule: device barriers
  claim an SM's full shared memory so at most one block runs per SM and
  a device-wide barrier can never deadlock below ``num_sms`` blocks.
* ``co_residency="cooperative"`` — post-Volta cooperative-groups
  scheduling: blocks co-reside up to the occupancy limits, and the
  launch is validated against the *actual* co-resident capacity of the
  requested block shape (the ``cudaLaunchCooperativeKernel`` rule)
  rather than one-block-per-SM.

Everything here is pure data + arithmetic: topologies are frozen,
hashable, and serialize through
:func:`repro.serialization.device_config_to_dict` like the rest of the
device config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.algorithms.base import require_int
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import DeviceConfig

__all__ = ["CO_RESIDENCY_POLICIES", "TOPOLOGY_KINDS", "Topology"]

#: the three modeled thread layouts.
TOPOLOGY_KINDS = ("single-device", "multi-device", "cluster")

#: how blocks share an SM: the paper's one-block-per-SM rule, or
#: post-Volta cooperative co-residency up to the occupancy limits.
CO_RESIDENCY_POLICIES = ("exclusive", "cooperative")


@dataclass(frozen=True)
class Topology:
    """Where a device's threads live, and what crossing domains costs."""

    #: one of :data:`TOPOLOGY_KINDS`.
    kind: str = "single-device"
    #: synchronization domains: devices (``multi-device``) or clusters
    #: (``cluster``).  ``single-device`` always has exactly one.
    num_domains: int = 1
    #: one of :data:`CO_RESIDENCY_POLICIES`.
    co_residency: str = "exclusive"
    #: extra latency (ns) paid by traffic that leaves its domain — a
    #: remote atomic, a store to (or spin observation of) memory homed
    #: in another domain.  Zero within a domain, always.
    crossing_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology kind {self.kind!r}; "
                f"expected one of {TOPOLOGY_KINDS}"
            )
        if self.co_residency not in CO_RESIDENCY_POLICIES:
            raise ConfigError(
                f"unknown co-residency policy {self.co_residency!r}; "
                f"expected one of {CO_RESIDENCY_POLICIES}"
            )
        require_int("num_domains", self.num_domains, minimum=1)
        require_int("crossing_ns", self.crossing_ns)
        if self.kind == "single-device":
            if self.num_domains != 1:
                raise ConfigError(
                    "a single-device topology has exactly one domain, "
                    f"got {self.num_domains}"
                )
            if self.crossing_ns != 0:
                raise ConfigError(
                    "a single-device topology has no interconnect to "
                    f"cross; crossing_ns must be 0, got {self.crossing_ns}"
                )
        elif self.num_domains < 2:
            raise ConfigError(
                f"a {self.kind} topology needs >= 2 domains, "
                f"got {self.num_domains}"
            )
        if self.crossing_ns < 0:
            raise ConfigError(
                f"crossing_ns must be non-negative, got {self.crossing_ns}"
            )

    # -- block placement -----------------------------------------------------

    def domain_of(self, block_id: int, num_blocks: int) -> int:
        """The sync domain hosting ``block_id`` of a ``num_blocks`` grid.

        Blocks are partitioned contiguously and near-evenly across the
        domains (block 0's run of blocks lands on domain 0, and so on) —
        deterministic, placement-independent, and matching how a
        multi-device launch would shard its grid.
        """
        if not 0 <= block_id < num_blocks:
            raise ConfigError(
                f"block_id {block_id} outside grid of {num_blocks}"
            )
        if self.num_domains == 1:
            return 0
        return block_id * self.num_domains // num_blocks

    def members_by_domain(self, num_blocks: int) -> Dict[int, List[int]]:
        """Occupied domains mapped to their (sorted) member block ids."""
        members: Dict[int, List[int]] = {}
        for block_id in range(num_blocks):
            members.setdefault(self.domain_of(block_id, num_blocks), []).append(
                block_id
            )
        return members

    # -- costs ----------------------------------------------------------------

    def crossing_latency_ns(self, from_domain: int, to_domain: int) -> int:
        """Interconnect latency between two domains (0 within a domain)."""
        if from_domain == to_domain:
            return 0
        return self.crossing_ns

    # -- co-residency ----------------------------------------------------------

    def max_co_resident_blocks(self, config: "DeviceConfig") -> int:
        """Largest grid a device-side barrier can safely synchronize.

        Exclusive co-residency is the paper's bound: one block per SM.
        Cooperative co-residency admits up to the per-SM block cap;
        the runner additionally validates the launch against the actual
        occupancy of the requested block shape.
        """
        if self.co_residency == "exclusive":
            return config.num_sms
        return config.num_sms * config.max_blocks_per_sm

    def shared_mem_claim(self, config: "DeviceConfig") -> int:
        """Shared memory a device barrier requests per block at launch.

        Exclusive: the whole SM (paper §5, forcing one block per SM).
        Cooperative: nothing — co-residency is safe under independent
        thread scheduling, so the barrier claims no scratchpad.
        """
        if self.co_residency == "exclusive":
            return config.shared_mem_per_sm
        return 0

    def sms_per_domain(self, config: "DeviceConfig") -> int:
        """SMs (or cores-cluster slots) inside one domain."""
        return config.num_sms // self.num_domains

    def describe(self) -> str:
        """One-line human description (reports, docs, CLI)."""
        if self.kind == "single-device":
            return f"single device, {self.co_residency} co-residency"
        noun = "device" if self.kind == "multi-device" else "cluster"
        return (
            f"{self.num_domains} {noun}s, {self.co_residency} co-residency, "
            f"{self.crossing_ns} ns crossing latency"
        )
