"""repro — Inter-Block GPU Communication via Fast Barrier Synchronization.

A from-scratch reproduction of Xiao & Feng (IPDPS 2010) on a
discrete-event GPU simulator.  See DESIGN.md for the system inventory
and README.md for a quickstart.

Top-level convenience re-exports cover the common workflow::

    from repro import run, FFT, get_strategy

    result = run(FFT(n=2**12), "gpu-lockfree", num_blocks=30)
    print(result.total_ms, result.verified)

Subpackages:

* :mod:`repro.simcore`    — the discrete-event engine
* :mod:`repro.gpu`        — the simulated GTX 280
* :mod:`repro.sync`       — the barrier strategies (the contribution)
* :mod:`repro.model`      — the paper's analytic performance models
* :mod:`repro.algorithms` — FFT, Smith-Waterman, bitonic sort, micro
* :mod:`repro.harness`    — experiment drivers for every table/figure
* :mod:`repro.sanitize`   — barrier sanitizer + schedule fuzzer
* :mod:`repro.faults`     — fault injection + resilient-runtime pieces
* :mod:`repro.parallel`   — fan-out executor + content-addressed cache
"""

from repro.algorithms import (
    BitonicSort,
    FFT,
    JacobiPoisson,
    MeanMicrobench,
    PrefixSum,
    Reduction,
    RoundAlgorithm,
    SmithWaterman,
    VerificationError,
)
from repro.errors import (
    BarrierTimeoutError,
    ConfigError,
    DeadlockError,
    FaultError,
    LaunchError,
    OccupancyError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
    SyncProtocolError,
)
from repro.faults import (
    BarrierWatchdog,
    ChaosReport,
    FaultPlan,
    FaultSpec,
    chaos_campaign,
    fault_plans,
)
from repro.gpu import (
    Device,
    DeviceConfig,
    Event,
    Host,
    KernelSpec,
    StageCostModel,
    Stream,
    Topology,
    get_preset,
    preset_names,
)
from repro.api import run
from repro.errors import ExecutorError
from repro.harness import (
    DegradePolicy,
    RetryPolicy,
    RunResult,
)
from repro.parallel import Executor, ResultCache
from repro.sanitize import (
    Finding,
    SanitizeReport,
    SanitizerProbe,
    ScheduleFuzzer,
    sanitize_run,
)
from repro.sync import (
    CpuExplicitSync,
    CpuImplicitSync,
    GpuClusterTreeSync,
    GpuDisseminationSync,
    GpuLockFreeSync,
    GpuSenseReversalSync,
    GpuSimpleSync,
    GpuTreeSync,
    NullSync,
    SyncStrategy,
    get_strategy,
    strategy_names,
)

__version__ = "1.0.0"

__all__ = [
    "BarrierTimeoutError",
    "BarrierWatchdog",
    "BitonicSort",
    "ChaosReport",
    "ConfigError",
    "CpuExplicitSync",
    "CpuImplicitSync",
    "DeadlockError",
    "DegradePolicy",
    "Device",
    "DeviceConfig",
    "Event",
    "Executor",
    "ExecutorError",
    "FFT",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "Finding",
    "GpuClusterTreeSync",
    "GpuDisseminationSync",
    "GpuLockFreeSync",
    "GpuSenseReversalSync",
    "GpuSimpleSync",
    "GpuTreeSync",
    "Host",
    "JacobiPoisson",
    "KernelSpec",
    "LaunchError",
    "MeanMicrobench",
    "NullSync",
    "OccupancyError",
    "PrefixSum",
    "Reduction",
    "ReproError",
    "ResultCache",
    "RetryExhaustedError",
    "RetryPolicy",
    "RoundAlgorithm",
    "RunResult",
    "SanitizeReport",
    "SanitizerProbe",
    "ScheduleFuzzer",
    "SimulationError",
    "SmithWaterman",
    "StageCostModel",
    "Stream",
    "SyncProtocolError",
    "SyncStrategy",
    "Topology",
    "VerificationError",
    "__version__",
    "chaos_campaign",
    "fault_plans",
    "get_preset",
    "get_strategy",
    "preset_names",
    "run",
    "sanitize_run",
    "strategy_names",
]
