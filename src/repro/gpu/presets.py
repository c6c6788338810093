"""The device-preset registry: every modeled machine behind one API.

Mirrors :func:`repro.sync.get_strategy`: presets register a factory
under a name, :func:`get_preset` instantiates one, and
:func:`preset_names` lists them.  Five presets ship (``docs/topology.md``
walks through the topology model behind the last three):

``gtx280``
    The paper's calibrated testbed — 30 SMs, one-block-per-SM exclusive
    co-residency, no interconnect.  The default everywhere.

``fermi_class``
    An **illustrative** GTX-480-like device for the
    what-would-change-a-generation-later study
    (``benchmarks/bench_generations.py``).  Fermi matters to this
    paper's story because it changed exactly the quantities the barriers
    are made of: L2-cached atomics (~3x cheaper), more and wider SMs
    (15 x 32 SPs, 48 KB shared each), leaner launch overheads.  The
    numbers are era-plausible estimates, **not** calibrated; the
    generations bench draws only qualitative conclusions from them.

``grid_sync``
    A cooperative-groups-class device (post-Volta independent thread
    scheduling): blocks co-reside on SMs up to the occupancy limits
    instead of one-per-SM, so device barriers synchronize grids far
    larger than ``num_sms`` — the ``cudaLaunchCooperativeKernel``
    world of arXiv 2004.05371.

``dual_gpu``
    Two GTX-280-class devices behind one logical config (60 SMs in two
    sync domains).  Lock-free and tree barriers work unchanged, but
    every cross-device arrival — a remote atomic, observing a flag
    homed on the other device — pays a modeled interconnect latency.

``riscv_cluster_1024``
    A 1024-core RISC-V manycore (64 core-clusters of 16 cores, grouped
    into 16 sync domains, arXiv 2307.10248 style): cheap local
    synchronization inside a cluster group, an expensive global
    interconnect between groups.  Pair it with the hierarchical
    ``gpu-cluster-tree`` barrier (local phase, then global phase).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.gpu.config import DeviceConfig
from repro.gpu.topology import Topology
from repro.model.calibration import CalibratedTimings

__all__ = [
    "get_preset",
    "preset_names",
    "register_preset",
]

_REGISTRY: Dict[str, Callable[[], DeviceConfig]] = {}


def register_preset(name: str, factory: Callable[[], DeviceConfig]) -> None:
    """Register a preset factory under ``name`` (overwrites allowed).

    Raises :class:`~repro.errors.ConfigError` unless ``name`` is a
    non-empty ``str`` and ``factory`` is callable.
    """
    if not isinstance(name, str) or not name:
        raise ConfigError(f"preset name must be a non-empty str, got {name!r}")
    if not callable(factory):
        raise ConfigError(
            f"preset {name!r} factory must be callable, got {factory!r}"
        )
    _REGISTRY[name] = factory


def get_preset(
    name: str, *, timings: Optional[CalibratedTimings] = None
) -> DeviceConfig:
    """Instantiate a registered device preset by name.

    ``timings`` (keyword-only) swaps in different calibrated timing
    parameters, like :meth:`DeviceConfig.with_timings`.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; known: {', '.join(preset_names())}"
        ) from None
    config = factory()
    if not isinstance(config, DeviceConfig):
        raise ConfigError(
            f"preset {name!r} factory returned {type(config).__name__}, "
            "not a DeviceConfig"
        )
    if timings is not None:
        config = config.with_timings(timings)
    return config


def preset_names() -> List[str]:
    """All registered preset names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# The shipped presets
# ---------------------------------------------------------------------------


def _gtx280() -> DeviceConfig:
    """The paper's testbed GPU (the DeviceConfig defaults)."""
    return DeviceConfig()


def _fermi_class() -> DeviceConfig:
    """An illustrative GTX-480-like device (see module docstring)."""
    timings = CalibratedTimings(
        host_launch_ns=4_500,  # leaner driver path
        host_async_call_ns=1_500,
        kernel_setup_ns=2_000,
        kernel_teardown_ns=2_000,
        atomic_ns=80,  # L2-cached atomics: ~3x cheaper
        spin_read_ns=140,  # L2 hit for the spin observation
        global_read_ns=140,
        global_write_ns=220,
        syncthreads_ns=100,
        tree_level_overhead_ns=240,
        lockfree_overhead_ns=220,
    )
    return DeviceConfig(
        name="Fermi-class (illustrative)",
        num_sms=15,
        sps_per_sm=32,
        clock_mhz=1401,
        shared_mem_per_sm=48 * 1024,
        registers_per_sm=32 * 1024,
        global_mem_bytes=1536 * 1024**2,
        global_bandwidth_gbps=177.4,
        pcie_gbps=8.0,
        max_threads_per_block=1024,
        max_threads_per_sm=1536,
        max_blocks_per_sm=8,
        timings=timings,
    )


def _grid_sync() -> DeviceConfig:
    """A cooperative-groups-class device (post-Volta scheduling).

    The interesting bit is the topology, not the raw size: cooperative
    co-residency lifts the paper's one-block-per-SM rule, so device
    barriers validate against the launched shape's real co-resident
    capacity and grids larger than ``num_sms`` synchronize fine.
    Timings are era-plausible (cheap L2 atomics, fast launches),
    uncalibrated — comparisons against ``gtx280`` are qualitative.
    """
    timings = CalibratedTimings(
        host_launch_ns=3_000,
        host_async_call_ns=1_000,
        kernel_setup_ns=1_500,
        kernel_teardown_ns=1_500,
        atomic_ns=40,
        spin_read_ns=80,
        global_read_ns=80,
        global_write_ns=120,
        syncthreads_ns=60,
        tree_level_overhead_ns=160,
        lockfree_overhead_ns=150,
    )
    return DeviceConfig(
        name="Grid-sync class (cooperative groups)",
        num_sms=80,
        sps_per_sm=64,
        clock_mhz=1530,
        shared_mem_per_sm=96 * 1024,
        registers_per_sm=64 * 1024,
        global_mem_bytes=16 * 1024**3,
        global_bandwidth_gbps=900.0,
        pcie_gbps=16.0,
        max_threads_per_block=1024,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        timings=timings,
        topology=Topology(
            kind="single-device", num_domains=1, co_residency="cooperative"
        ),
    )


def _dual_gpu() -> DeviceConfig:
    """Two GTX-280-class devices behind one logical config.

    ``num_sms`` counts SMs across the whole system; the topology
    partitions blocks into one domain per device and charges every
    cross-device arrival ~1.5 us of interconnect latency (a PCIe-era
    peer-to-peer hop).  Everything else keeps the calibrated GTX 280
    numbers, so single-domain grids reproduce the paper exactly.
    """
    return DeviceConfig(
        name="Dual GTX 280 (modeled interconnect)",
        num_sms=60,
        global_mem_bytes=2 * 1024**3,
        topology=Topology(
            kind="multi-device",
            num_domains=2,
            co_residency="exclusive",
            crossing_ns=1_500,
        ),
    )


def _riscv_cluster_1024() -> DeviceConfig:
    """A 1024-core RISC-V manycore with clustered sync domains.

    64 core-clusters of 16 cores (one "SM" = one cluster, its 16 cores
    folded into the block cost model, exactly as warps are on the GPU
    presets), grouped into 16 sync domains of 4 clusters each.  Local
    traffic is near-memory cheap; crossing the global interconnect
    costs ~250 ns.  Exclusive co-residency: one block per cluster.
    """
    timings = CalibratedTimings(
        host_launch_ns=2_000,
        host_async_call_ns=600,
        kernel_setup_ns=1_000,
        kernel_teardown_ns=1_000,
        atomic_ns=40,  # near-memory LR/SC at the cluster scratchpad
        spin_read_ns=30,
        global_read_ns=60,
        global_write_ns=90,
        syncthreads_ns=40,
        tree_level_overhead_ns=120,
        lockfree_overhead_ns=100,
    )
    return DeviceConfig(
        name="RISC-V manycore (1024 cores, 64 clusters)",
        num_sms=64,
        sps_per_sm=16,
        clock_mhz=1000,
        shared_mem_per_sm=128 * 1024,
        registers_per_sm=32 * 1024,
        global_mem_bytes=4 * 1024**3,
        global_bandwidth_gbps=256.0,
        pcie_gbps=16.0,
        max_threads_per_block=512,
        max_threads_per_sm=512,
        max_blocks_per_sm=4,
        timings=timings,
        topology=Topology(
            kind="cluster",
            num_domains=16,
            co_residency="exclusive",
            crossing_ns=250,
        ),
    )


register_preset("gtx280", _gtx280)
register_preset("fermi_class", _fermi_class)
register_preset("grid_sync", _grid_sync)
register_preset("dual_gpu", _dual_gpu)
register_preset("riscv_cluster_1024", _riscv_cluster_1024)
