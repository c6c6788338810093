"""Run one algorithm under one synchronization strategy and measure it."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Generator, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.base import RoundAlgorithm, require_int
from repro.errors import (
    BarrierTimeoutError,
    ConfigError,
    DeadlockError,
    FaultError,
    OccupancyError,
)
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset
from repro.gpu.context import BlockCtx
from repro.gpu.device import Device
from repro.gpu.host import Host
from repro.gpu.kernel import KernelSpec
from repro.harness.fastforward import WINDOW, NoPeriod, PeriodWatch, splice
from repro.sync.base import SyncStrategy, get_strategy

__all__ = ["RaceMonitor", "RecoveryEvent", "RunResult", "run"]

logger = logging.getLogger(__name__)


class RaceMonitor:
    """Detects barrier violations during a run.

    The runner calls :meth:`record` as each block finishes a round's
    work; when block ``b`` executes round ``r`` before every block
    finished round ``r-1``, a violation is recorded.  A correct barrier
    yields zero violations; the broken/null configurations exercised in
    tests and the deadlock demo yield many.
    """

    def __init__(self, rounds: int, num_blocks: int):
        self.num_blocks = num_blocks
        self._done = [0] * rounds
        #: ``(round, block, blocks_done_in_previous_round)`` records.
        self.violations: List[Tuple[int, int, int]] = []

    def record(self, round_idx: int, block_id: int) -> None:
        """Block ``block_id`` has just done its work for ``round_idx``."""
        if round_idx > 0 and self._done[round_idx - 1] < self.num_blocks:
            self.violations.append((round_idx, block_id, self._done[round_idx - 1]))
        self._done[round_idx] += 1

    @property
    def clean(self) -> bool:
        """True when no violation was observed."""
        return not self.violations


@dataclass(frozen=True)
class RecoveryEvent:
    """One resilience action taken during a run.

    ``kind`` is ``"retry"`` or ``"degrade"``;
    ``detail`` is the human-readable cause (the caught error's message
    or the fallback strategy's name).
    """

    kind: str
    attempt: int  #: 1-based attempt the event happened in
    at_ns: int  #: virtual time charged up to this point
    detail: str


@dataclass
class RunResult:
    """Everything measured from one configuration."""

    algorithm: str
    strategy: str
    num_blocks: int
    threads_per_block: int
    rounds: int
    total_ns: int  #: wall-clock virtual time of the whole run
    kernel_launches: int
    verified: Optional[bool]  #: None when verification was skipped
    violations: int  #: barrier violations seen by the race monitor (-1: off)
    atomic_ops: int
    trace_compute_ns: int  #: sum of per-block compute spans
    trace_sync_ns: int  #: sum of per-block sync + sync-overhead spans
    device: Optional[Device] = field(default=None, repr=False)
    # -- resilient-runtime fields (defaults describe a plain clean run) --
    #: launch attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: True when the run finished on a fallback barrier, not ``strategy``.
    degraded: bool = False
    #: the original strategy a degraded run started on.
    degraded_from: Optional[str] = None
    #: injected faults that actually fired across all attempts.
    faults_fired: int = 0
    #: virtual time burned by failed attempts + backoff (already included
    #: in ``total_ns``).
    retry_overhead_ns: int = 0
    #: every resilience action taken, in order.
    recovery: List[RecoveryEvent] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        """Total time in milliseconds."""
        return self.total_ns / 1e6

    @property
    def recovered(self) -> bool:
        """True when the run needed any resilience action to finish."""
        return self.attempts > 1 or self.degraded


def _kernel_relabel(name: str) -> Callable[[str, int], str]:
    """Owner renaming that advances host-mode kernel names ``{name}:r{r}``."""
    pattern = re.compile(rf"{re.escape(name)}:r(\d+)")

    def relabel(owner: str, rounds: int) -> str:
        return pattern.sub(
            lambda m: f"{name}:r{int(m.group(1)) + rounds}", owner, count=1
        )

    return relabel


def run(
    algorithm: RoundAlgorithm,
    strategy: Union[str, SyncStrategy],
    num_blocks: int,
    *,
    threads_per_block: Optional[int] = None,
    config: Optional[DeviceConfig] = None,
    verify: bool = True,
    monitor_races: bool = True,
    keep_device: bool = False,
    jitter_pct: float = 0.0,
    jitter_seed: int = 0,
    fuzzer=None,
    probe=None,
    faults=None,
    recover: bool = False,
) -> RunResult:
    """Execute ``algorithm`` under ``strategy`` on a fresh device.

    * device strategies run a single kernel whose blocks loop over rounds
      calling the strategy's barrier (paper Fig. 4);
    * host strategies launch one kernel per round, synchronizing between
      launches when the strategy is explicit (paper Fig. 2).

    The algorithm is :meth:`~repro.algorithms.base.RoundAlgorithm.reset`
    before running and, unless ``verify=False`` or the strategy is the
    ``null`` timing stub, verified afterwards.  ``keep_device=True``
    keeps the simulated device (and its event trace) on the result.

    ``jitter_pct`` adds hardware-style run-to-run variability: each
    block's round cost is scaled by a lognormal factor with that
    relative spread, deterministically derived from ``jitter_seed`` (so
    a given seed is exactly reproducible — use
    :func:`repro.harness.stats.repeat_run` to average over seeds the way
    the paper averages three runs).

    ``fuzzer`` (a :class:`repro.sanitize.ScheduleFuzzer`) permutes
    same-time event ordering and SM-placement tie-breaking — the
    sanitizer's adversarial-interleaving layer.  ``probe`` (a
    :class:`repro.sanitize.SanitizerProbe`) observes barrier rounds and
    global-memory traffic.  Both default to off and cost nothing then.

    ``faults`` (a :class:`repro.faults.FaultPlan`) arms deterministic
    fault injection on the device.  In an armed run a kernel killed
    mid-run (the ``driver-kill`` fault) raises
    :class:`~repro.errors.FaultError`, and a stall the engine finds when
    its queue drains raises a recoverable
    :class:`~repro.errors.BarrierTimeoutError` naming the stuck
    processes instead of a terminal :class:`~repro.errors.DeadlockError`.
    It defaults to off and costs nothing then.

    ``recover=True`` turns on the one recovery policy
    (:mod:`repro.harness.resilient`): failed attempts are relaunched
    with a growing backoff, a device strategy then falls back to the
    ``cpu-implicit`` barrier, and a run nothing rescues raises
    :class:`~repro.errors.RetryExhaustedError`.  Without it a run is
    one attempt.

    An algorithm that opts in through
    :attr:`~repro.algorithms.base.RoundAlgorithm.skip_rounds` (the
    micro-benchmark) is fast-forwarded: the runner simulates a short
    prefix, checks that it is periodic and splices in the remaining
    rounds, with a result identical to the full simulation
    (:mod:`repro.harness.fastforward`; a DEBUG record on this module's
    logger says whether a run was spliced).  Jitter, a fuzzer, a probe
    or faults keep every round simulated.

    Malformed inputs raise :class:`~repro.errors.ConfigError` before
    anything is simulated: a ``strategy`` that is neither a registered
    name nor a :class:`~repro.sync.base.SyncStrategy`, a ``config`` that
    is not a :class:`~repro.gpu.config.DeviceConfig`, a ``num_blocks``,
    ``threads_per_block`` or ``jitter_seed`` that is not an ``int``
    (``bool`` included), ``threads_per_block`` below 1, a
    ``jitter_pct`` that is not a finite, non-negative number, and a
    ``recover`` that is not a ``bool``.
    """
    if not isinstance(strategy, SyncStrategy):
        strategy = get_strategy(strategy)
    require_int("num_blocks", num_blocks)
    if config is not None and not isinstance(config, DeviceConfig):
        raise ConfigError(f"config must be a DeviceConfig, got {config!r}")
    cfg = config or get_preset("gtx280")
    threads = (
        algorithm.default_threads if threads_per_block is None else threads_per_block
    )
    require_int("threads_per_block", threads, minimum=1)
    if threads > cfg.max_threads_per_block:
        raise ConfigError(
            f"{threads} threads/block exceeds the device limit "
            f"{cfg.max_threads_per_block}"
        )
    if (
        isinstance(jitter_pct, bool)
        or not isinstance(jitter_pct, Real)
        or not math.isfinite(jitter_pct)
        or jitter_pct < 0
    ):
        raise ConfigError(
            f"jitter_pct must be a finite, non-negative number, got {jitter_pct!r}"
        )
    require_int("jitter_seed", jitter_seed)
    if not isinstance(recover, bool):
        raise ConfigError(f"recover must be a bool, got {recover!r}")

    def steady_blocker() -> Optional[str]:
        """Why this run may not be fast-forwarded (None: it may)."""
        rounds = algorithm.num_rounds()
        for reason, present in (
            ("jitter on", jitter_pct > 0),
            ("fuzzer on", fuzzer is not None),
            ("probe on", probe is not None),
            ("faults on", faults is not None),
            (f"{rounds} rounds <= window {WINDOW}", rounds <= WINDOW),
        ):
            if present:
                return reason
        return None

    def attempt(strategy: Union[str, SyncStrategy]) -> RunResult:
        """One launch of the validated configuration under ``strategy``.

        An algorithm that opts in to steady-state fast-forward first gets
        a :data:`~repro.harness.fastforward.WINDOW`-round prefix; if that
        proves a period the result is spliced, otherwise the run is
        simulated in full.  Either way one DEBUG record says which.
        """
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        strategy.validate_grid(cfg, num_blocks)
        if algorithm.skip_rounds is None:
            return simulate(strategy, steady=False)
        reason = steady_blocker()
        if reason is None:
            try:
                return simulate(strategy, steady=True)
            except NoPeriod as declined:
                reason = str(declined)
            except Exception as exc:  # noqa: BLE001 - the full run re-raises it
                reason = f"prefix raised {type(exc).__name__}"
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "fast-forward declined for %s on %s (%d blocks, %d rounds): %s",
                algorithm.name, strategy.name, num_blocks,
                algorithm.num_rounds(), reason,
            )
        return simulate(strategy, steady=False)

    def simulate(strategy: SyncStrategy, steady: bool) -> RunResult:
        """Simulate every round, or (``steady``) a prefix spliced to the rest.

        A prefix that does not prove a period raises
        :class:`~repro.harness.fastforward.NoPeriod`.
        """
        algorithm.reset()
        device = Device(cfg, fuzzer=fuzzer, faults=faults)
        if probe is not None:
            device.probes.append(probe)
        host = Host(device)
        total_rounds = algorithm.num_rounds()
        rounds = WINDOW if steady else total_rounds
        monitor = RaceMonitor(rounds, num_blocks) if monitor_races else None
        host_mode = strategy.mode != "device"
        watch: Optional[PeriodWatch] = None
        if steady:
            relabel = _kernel_relabel(algorithm.name) if host_mode else None
            watch = PeriodWatch(device, host_mode, relabel)

        jitter: Optional[Callable[[float], float]] = None
        if jitter_pct > 0:
            sigma = jitter_pct / 100.0
            jitter_rng = np.random.default_rng(jitter_seed)

            def lognormal(cost: float) -> float:
                return cost * jitter_rng.lognormal(mean=0.0, sigma=sigma)

            jitter = lognormal

        # One block program runs rounds [first, last): each round's cost,
        # jitter and work, then ctx.compute in its two halves (so no
        # generator is built per round), the race monitor's record in
        # the same event, and the strategy's in-kernel barrier when it
        # has one.  A device strategy launches it once for every round;
        # a host strategy launches it once per round, and the kernel
        # boundary is the barrier (paper Figs. 2 and 4).
        engine = device.engine
        barrier: Optional[Callable[[BlockCtx, int], Generator]] = None
        if not host_mode:
            strategy.prepare(device, num_blocks)
            barrier = strategy.barrier

        def program(ctx: BlockCtx, first: int, last: int) -> Generator:
            block_id = ctx.block_id
            for r in range(first, last):
                if watch is not None and block_id == 0:
                    watch.tick(r)
                cost = algorithm.round_cost(r, block_id, num_blocks)
                if jitter is not None:
                    cost = jitter(cost)
                work = algorithm.round_work(r, block_id, num_blocks)
                start = engine.now
                delay = ctx.compute_effect(cost)
                if delay is not None:
                    yield delay
                ctx.compute_done(start, work, {"round": r})
                if monitor is not None:
                    monitor.record(r, block_id)
                if barrier is not None:
                    yield from barrier(ctx, r)

        shared_mem = strategy.shared_mem_request(cfg)

        def kernel(name: str, first: int, last: int) -> KernelSpec:
            return KernelSpec(
                name=name,
                program=program,
                grid_blocks=num_blocks,
                block_threads=threads,
                shared_mem_per_block=shared_mem,
                params={"first": first, "last": last},
            )

        specs: Iterable[KernelSpec]
        if host_mode:
            specs = (
                kernel(f"{algorithm.name}:r{r}", r, r + 1) for r in range(rounds)
            )
        else:
            spec = kernel(f"{algorithm.name}:{strategy.name}", 0, rounds)
            # The cudaLaunchCooperativeKernel rule: under cooperative
            # co-residency the topology's ``max_co_resident_blocks`` is only
            # an upper bound, so validate against the *actual* capacity of
            # this block shape (occupancy-aware).  Exclusive topologies keep
            # the paper's behavior untouched: validate_grid above is the
            # guard, and bypassing it still reaches the engine's own
            # deadlock detection.  Capacity 0 (a block that cannot be
            # placed at all) keeps the scheduler's own error.
            if cfg.topology.co_residency == "cooperative":
                capacity = device.scheduler.co_resident_capacity(spec)
                if capacity and num_blocks > capacity:
                    raise OccupancyError(
                        f"{strategy.name}: {num_blocks} blocks of {threads} "
                        f"threads exceed the device's co-resident capacity of "
                        f"{capacity} blocks; a device-side barrier would "
                        "deadlock (non-preemptive blocks)"
                    )
            specs = (spec,)

        def host_program() -> Generator:
            for r, spec in enumerate(specs):
                if watch is not None and host_mode:
                    watch.launch = r
                yield from host.launch(spec)
                if strategy.explicit:
                    yield from host.synchronize()
            if watch is not None and host_mode:
                watch.launch = -1
            yield from host.synchronize()

        root = host_program()
        if watch is not None and host_mode:
            root = watch.counted(root)
        device.engine.spawn(root, "host")
        stall: Optional[DeadlockError] = None
        try:
            total_ns = device.run()
        except DeadlockError as exc:
            if faults is None:
                raise
            stall = exc

        if faults is not None:
            # Check the handles, not just the host's sticky error: in host
            # mode the final synchronize joins only the *last* kernel, so a
            # kill of an earlier launch never latches last_error.
            killed = device.killed
            if killed:
                detail = host.get_last_error() or (
                    f"kernel {killed[0].spec.name!r} was killed"
                )
                raise FaultError(f"kernel killed mid-run: {detail}") from stall
            if stall is not None:
                # The engine's drain check is the stall detector: the
                # queue is empty, so nothing parked can ever wake.
                raise BarrierTimeoutError(
                    strategy.name,
                    device.engine.now,
                    stall.blocked,
                    faults=[f.description for f in faults.fired],
                ) from stall

        if watch is not None:
            if monitor is not None and not monitor.clean:
                raise NoPeriod("race violation in the prefix")
            period = watch.period()
            skipped = total_rounds - rounds
            splice(device, period, skipped)
            skip_rounds = algorithm.skip_rounds
            assert skip_rounds is not None  # only opted-in runs are steady
            skip_rounds(skipped)
            total_ns = device.engine.now
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "fast-forward engaged for %s on %s (%d blocks, %d rounds): "
                    "window %d, period %d ns, %d spans per period, "
                    "%d rounds skipped",
                    algorithm.name, strategy.name, num_blocks, total_rounds,
                    WINDOW, period.ns, period.spans, skipped,
                )

        phases = device.trace.by_phase()
        verified: Optional[bool] = None
        if verify and strategy.name != "null":
            algorithm.verify()  # raises VerificationError on mismatch
            verified = True

        return RunResult(
            algorithm=algorithm.name,
            strategy=strategy.name,
            num_blocks=num_blocks,
            threads_per_block=threads,
            rounds=total_rounds,
            total_ns=total_ns,
            kernel_launches=total_rounds if host_mode else 1,
            verified=verified,
            violations=len(monitor.violations) if monitor is not None else -1,
            atomic_ops=device.atomics.ops,
            trace_compute_ns=phases.get("compute", 0),
            trace_sync_ns=phases.get("sync", 0) + phases.get("sync-overhead", 0),
            device=device if keep_device else None,
            faults_fired=len(faults.fired) if faults is not None else 0,
        )

    if not recover:
        return attempt(strategy)
    from repro.harness.resilient import _run_resilient

    return _run_resilient(attempt, strategy, faults)
