"""The common interface every synchronization strategy implements."""

from __future__ import annotations

import abc
from itertools import count
from typing import Any, Callable, Dict, Generator, List, TYPE_CHECKING

from repro.errors import ConfigError, OccupancyError, SyncProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import DeviceConfig
    from repro.gpu.context import BlockCtx
    from repro.gpu.device import Device

__all__ = ["SyncStrategy", "register_strategy", "get_strategy", "strategy_names"]

_UIDS = count()


def _hang_forever(ctx: "BlockCtx", strategy_name: str, round_idx: int) -> Generator[Any, Any, Any]:
    """Park a block forever (the injected ``hang`` fault).

    The block waits on a signal nothing ever fires — the simulated
    analogue of a block that died or spun off into the weeds before
    reaching the barrier.  Only a kernel kill (or the engine's
    deadlock detection) ends the wait; the reason string names the
    fault so :class:`repro.errors.BarrierTimeoutError` reports it.
    """
    from repro.simcore.effects import WaitUntil
    from repro.simcore.signal import Signal

    tombstone = Signal(f"fault-hang:{ctx.owner}")
    yield WaitUntil(
        tombstone,
        lambda: False,
        f"injected hang: block {ctx.block_id} never reaches the "
        f"{strategy_name} barrier of round {round_idx}",
    )


class SyncStrategy(abc.ABC):
    """One way of implementing the inter-block barrier.

    Two modes exist:

    * ``mode == "host"`` — the barrier *is* the kernel boundary.  The
      runner launches one kernel per round; :attr:`explicit` selects
      whether the host calls ``cudaThreadSynchronize()`` between launches
      (paper §4.1) or lets launches pipeline (§4.2).  :meth:`prepare` and
      :meth:`barrier` are unused.
    * ``mode == "device"`` — a single kernel runs all rounds, and every
      block calls :meth:`barrier` between rounds (paper §4.3, §5).
      :meth:`prepare` allocates the strategy's device state;
      :meth:`shared_mem_request` and :meth:`max_blocks` enforce the
      one-block-per-SM co-residency rule.

    Every device barrier has the same frame (paper Figs. 6, 8, 9): the
    leading thread runs a protocol, then ``__syncthreads()`` releases the
    block.  :meth:`barrier` owns that frame; a device strategy implements
    only :meth:`protocol`, and its :meth:`prepare` calls
    ``super().prepare(...)`` before allocating.
    """

    #: strategy identifier, e.g. ``"gpu-lockfree"``.
    name: str = "abstract"
    #: ``"host"`` or ``"device"``.
    mode: str = "device"
    #: host mode only: call cudaThreadSynchronize() between launches.
    explicit: bool = False
    #: grid size of the last :meth:`prepare` (0: not prepared yet).
    _num_blocks: int = 0

    def __init__(self) -> None:
        #: per-instance suffix for allocation names (``g_mutex#<uid>``),
        #: so several strategies can share one device.
        self._uid = next(_UIDS)

    # -- device-mode API ------------------------------------------------------

    def prepare(self, device: "Device", num_blocks: int) -> None:
        """Validate a grid of ``num_blocks`` blocks and remember its size.

        Subclasses call this first, then allocate their device state.
        """
        if self.mode != "device":
            raise NotImplementedError(f"{self.name} is a host-side strategy")
        self.validate_grid(device.config, num_blocks)
        self._num_blocks = num_blocks

    def barrier(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        """The device barrier; called by every block, once per round.

        Raises at once unless the strategy was prepared for this grid;
        otherwise returns the frame every device barrier shares: the
        ``hang`` fault's injection point (:mod:`repro.faults`; a hung
        block parks before any probe sees it enter), the probes' *enter*
        notification (:mod:`repro.sanitize`), :meth:`protocol`, the
        closing ``__syncthreads()``, the ``sync`` span and the probes'
        *exit* notification.  Without faults or probes each hook costs
        one check.
        """
        if self.mode != "device":
            raise NotImplementedError(f"{self.name} is a host-side strategy")
        if not self._num_blocks:
            raise SyncProtocolError(f"{self.name} barrier used before prepare()")
        if ctx.num_blocks != self._num_blocks:
            raise SyncProtocolError(
                f"{self.name} prepared for {self._num_blocks} blocks, "
                f"called with {ctx.num_blocks}"
            )
        return self._frame(ctx, round_idx)

    def _frame(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        """The body of :meth:`barrier`, once its checks have passed."""
        device = ctx.device
        faults = device.faults
        if faults is not None and faults.should_hang(ctx.block_id, round_idx):
            yield from _hang_forever(ctx, self.name, round_idx)
        probes = device.probes
        for probe in probes:
            probe.on_barrier_enter(ctx, self, round_idx)
        engine = device.engine
        start = engine.now
        yield from self.protocol(ctx, round_idx)
        # ctx.syncthreads(), in its two halves: no generator per barrier.
        sync_start = engine.now
        yield ctx.syncthreads_effect()
        ctx.syncthreads_done(sync_start)
        ctx.record("sync", start, round=round_idx, strategy=self.name)
        for probe in probes:
            probe.on_barrier_exit(ctx, self, round_idx)

    def protocol(self, ctx: "BlockCtx", round_idx: int) -> Generator[Any, Any, Any]:
        """The leading thread's part of the barrier (paper Figs. 6, 8, 9).

        It returns once this block may leave the round; :meth:`barrier`
        adds the closing ``__syncthreads()``.
        """
        raise NotImplementedError(f"{self.name} has no device protocol")

    def shared_mem_request(self, config: "DeviceConfig") -> int:
        """Shared memory per block to request at launch.

        Resolved through the device topology: under exclusive
        co-residency device barriers claim the whole SM (paper §5) so
        occupancy is one block per SM; under cooperative co-residency
        they claim nothing.  Host strategies claim nothing either way.
        """
        if self.mode == "device":
            return config.topology.shared_mem_claim(config)
        return 0

    def max_blocks(self, config: "DeviceConfig") -> int:
        """Largest grid this strategy can synchronize on ``config``.

        Resolved through the device topology: one block per SM under
        exclusive co-residency (the paper's bound), up to the per-SM
        block cap under cooperative scheduling (the runner additionally
        validates against the launched shape's actual occupancy).
        """
        if self.mode == "device":
            return config.topology.max_co_resident_blocks(config)
        # Host barriers restart the grid each round, so any size works.
        return 2**31 - 1

    def validate_grid(self, config: "DeviceConfig", num_blocks: int) -> None:
        """Raise :class:`~repro.errors.OccupancyError` on unsafe grids."""
        if num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
        limit = self.max_blocks(config)
        if num_blocks > limit:
            raise OccupancyError(
                f"{self.name}: {num_blocks} blocks exceed the "
                f"{limit}-block co-residency limit; a device-side barrier "
                "would deadlock (non-preemptive blocks, paper §5)"
            )

    def describe(self) -> str:
        """One-line human description (reports, CLI)."""
        return f"{self.name} ({self.mode}-side barrier)"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: Dict[str, Callable[[], SyncStrategy]] = {}


def register_strategy(name: str, factory: Callable[[], SyncStrategy]) -> None:
    """Register a strategy factory under ``name`` (overwrites allowed)."""
    _REGISTRY[name] = factory


def get_strategy(name: str) -> SyncStrategy:
    """Instantiate a registered strategy by name."""
    if not isinstance(name, str):
        raise ConfigError(f"strategy name must be a str, got {name!r}")
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; known: {', '.join(strategy_names())}"
        ) from None
    return factory()


def strategy_names() -> List[str]:
    """All registered strategy names, sorted."""
    return sorted(_REGISTRY)
