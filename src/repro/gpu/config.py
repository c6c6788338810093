"""Device configuration (defaults: the paper's GTX 280).

Preset construction lives in :mod:`repro.gpu.presets` behind the
``get_preset(name)`` registry; this module holds the
:class:`DeviceConfig` dataclass itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.gpu.topology import Topology
from repro.model.calibration import CalibratedTimings, default_timings

__all__ = ["DeviceConfig"]


@dataclass(frozen=True)
class DeviceConfig:
    """Static properties of the simulated device.

    Defaults describe the NVIDIA GeForce GTX 280 used in the paper:
    30 SMs × 8 SPs at 1296 MHz, 16 KB shared memory and 16 384 registers
    per SM, 1 GB of global memory at 141.7 GB/s, CUDA compute 1.3 limits
    (512 threads/block, 1024 threads/SM, 8 blocks/SM).
    """

    name: str = "GeForce GTX 280"
    num_sms: int = 30
    sps_per_sm: int = 8
    clock_mhz: int = 1296
    shared_mem_per_sm: int = 16 * 1024
    registers_per_sm: int = 16 * 1024
    global_mem_bytes: int = 1024**3
    global_bandwidth_gbps: float = 141.7
    pcie_gbps: float = 8.0  # PCIe 2.0 x16 effective host↔device bandwidth
    warp_size: int = 32
    max_threads_per_block: int = 512
    max_threads_per_sm: int = 1024
    max_blocks_per_sm: int = 8
    #: display-attached watchdog: kernels running longer than this are
    #: aborted (None = headless, no watchdog).
    watchdog_ns: Optional[int] = None
    #: what the watchdog does: "raise" stops the simulation with
    #: KernelTimeoutError; "kill" cancels the kernel like the real driver
    #: and lets the host observe the failure via Host.get_last_error().
    watchdog_action: str = "raise"
    timings: CalibratedTimings = field(default_factory=default_timings)
    #: where this device's threads live — sync domains, co-residency
    #: policy, interconnect crossing cost (:mod:`repro.gpu.topology`).
    #: The default is the paper's world: one device, one block per SM.
    topology: Topology = field(default_factory=Topology)

    def __post_init__(self) -> None:
        for name in (
            "num_sms",
            "sps_per_sm",
            "clock_mhz",
            "shared_mem_per_sm",
            "registers_per_sm",
            "global_mem_bytes",
            "warp_size",
            "max_threads_per_block",
            "max_threads_per_sm",
            "max_blocks_per_sm",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.global_bandwidth_gbps <= 0:
            raise ConfigError("global_bandwidth_gbps must be positive")
        if self.pcie_gbps <= 0:
            raise ConfigError("pcie_gbps must be positive")
        if self.watchdog_ns is not None and self.watchdog_ns < 1:
            raise ConfigError("watchdog_ns must be >= 1 (or None)")
        if self.watchdog_action not in ("raise", "kill"):
            raise ConfigError(
                f"watchdog_action must be 'raise' or 'kill', "
                f"got {self.watchdog_action!r}"
            )
        if self.num_sms % self.topology.num_domains != 0:
            raise ConfigError(
                f"num_sms ({self.num_sms}) must divide evenly into the "
                f"topology's {self.topology.num_domains} domain(s)"
            )

    @property
    def total_sps(self) -> int:
        """Total streaming processors on the device."""
        return self.num_sms * self.sps_per_sm

    @property
    def bytes_per_ns_per_sm(self) -> float:
        """Fair-share global-memory bandwidth of one SM (bytes/ns)."""
        return self.global_bandwidth_gbps / self.num_sms

    def blocks_per_sm(
        self,
        threads_per_block: int,
        shared_mem_per_block: int = 0,
        registers_per_thread: int = 16,
    ) -> int:
        """Occupancy: how many blocks of this shape fit on one SM.

        Returns 0 when a single block already exceeds an SM's resources.
        The paper's device barriers force this to 1 by requesting all
        shared memory (§5: "we allocate all available shared memory ...
        so that no two blocks can be scheduled to the same SM").
        """
        if threads_per_block < 1:
            raise ConfigError(
                f"threads_per_block must be >= 1, got {threads_per_block}"
            )
        if threads_per_block > self.max_threads_per_block:
            return 0
        if shared_mem_per_block > self.shared_mem_per_sm:
            return 0
        if registers_per_thread * threads_per_block > self.registers_per_sm:
            return 0
        limits = [
            self.max_blocks_per_sm,
            self.max_threads_per_sm // threads_per_block,
        ]
        if shared_mem_per_block > 0:
            limits.append(self.shared_mem_per_sm // shared_mem_per_block)
        if registers_per_thread > 0:
            limits.append(
                self.registers_per_sm // (registers_per_thread * threads_per_block)
            )
        return max(0, min(limits))

    def with_timings(self, timings: CalibratedTimings) -> "DeviceConfig":
        """A copy of this config with different timing parameters."""
        return replace(self, timings=timings)
