"""Analytic barrier cost models — Eqs. 6, 7, 8 and 9 of the paper.

These are the *predictions*; the simulator produces *measurements*.
``benchmarks/bench_models.py``, ``tests/model/test_barrier_costs.py``
and ``tests/model/test_model_agreement.py`` check that the two agree
(paper §5.4: "the time needed for each GPU synchronization approach
matches the time consumption model well").

:data:`MODELED_BARRIERS` is the one strategy→equation table and
:func:`barrier_cost` the one lookup: ``repro tune``
(:func:`repro.model.tune.predict_all`) and ``repro models``
(:func:`repro.harness.experiments.model_validation`) both price a
device barrier through it, with the device's calibrated timings and
topology.  The extension barriers' costs (:func:`sense_reversal_cost`,
:func:`dissemination_cost`) live here too, outside the table.

Each cost accepts an optional ``topology``
(:class:`~repro.gpu.topology.Topology`): on multi-domain devices, the
synchronization state (mutex, ``Arrayin``/``Arrayout``) is homed in
domain 0 and every remote arrival or observation pays the interconnect
crossing latency, per strategy's actual traffic pattern (see
``docs/tuning.md`` for the derivations).  A single-device topology (or
``None``) reproduces the paper's equations exactly.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.algorithms.base import require_int
from repro.errors import ConfigError
from repro.gpu.topology import Topology
from repro.model.calibration import CalibratedTimings, default_timings

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import DeviceConfig

__all__ = [
    "MODELED_BARRIERS",
    "barrier_cost",
    "simple_cost",
    "tree_num_groups",
    "tree_group_sizes",
    "tree_level_plan",
    "tree_cost",
    "lockfree_cost",
    "sense_reversal_cost",
    "dissemination_cost",
]


def _check_blocks(num_blocks: int) -> None:
    require_int("num_blocks", num_blocks, 1)


def _remote_blocks(num_blocks: int, topology: Optional[Topology]) -> int:
    """Blocks homed outside domain 0 (where the sync state lives)."""
    if topology is None or topology.num_domains == 1:
        return 0
    return sum(
        1
        for block_id in range(num_blocks)
        if topology.domain_of(block_id, num_blocks) != 0
    )


def _occupied_domains(num_blocks: int, topology: Optional[Topology]) -> int:
    if topology is None or topology.num_domains == 1:
        return 1
    return len(topology.members_by_domain(num_blocks))


def simple_cost(
    num_blocks: int,
    timings: Optional[CalibratedTimings] = None,
    *,
    topology: Optional[Topology] = None,
) -> int:
    """Eq. 6: GPU simple synchronization cost ``t = N·t_a + t_c``.

    ``t_c`` here is the fixed tail: one successful spin observation plus
    the closing ``__syncthreads()``.

    On a multi-domain topology the mutex is homed in domain 0: every
    remote block's ``atomicAdd`` serializes through the interconnect
    (``remote · crossing_ns``) and, when any block is remote, the
    critical path ends with a remote spin observation (one more
    crossing).  The simple barrier degrades worst under partitioning —
    all of its traffic converges on one cell.
    """
    _check_blocks(num_blocks)
    t = timings or default_timings()
    cost = num_blocks * t.atomic_ns + t.spin_read_ns + t.syncthreads_ns
    remote = _remote_blocks(num_blocks, topology)
    if remote and topology is not None:
        cost += remote * topology.crossing_ns + topology.crossing_ns
    return cost


def tree_num_groups(num_participants: int, levels_remaining: int) -> int:
    """Number of groups at a tree level (Eq. 8 generalized).

    With ``k = levels_remaining`` levels left to resolve ``r``
    participants, a balanced tree uses ``ceil(r ** ((k-1)/k))`` groups.
    For ``k == 2`` this is exactly the paper's ``m = ceil(sqrt(N))``.
    """
    _check_blocks(num_participants)
    require_int("levels_remaining", levels_remaining, 2)
    k = levels_remaining
    m = math.ceil(num_participants ** ((k - 1) / k))
    return max(1, min(m, num_participants))


def tree_group_sizes(num_blocks: int, num_groups: int) -> List[int]:
    """The paper's §5.2 partition of ``N`` blocks into ``m`` groups.

    If ``m**2 == N`` every group holds ``m`` blocks; otherwise the first
    ``m-1`` groups hold ``floor(N/(m-1))`` and the last takes the rest.
    Degenerate partitions (an empty last group, or more groups than
    blocks) are repaired by dropping empty groups, which preserves the
    paper's sizes for every N that matters (1..30) while keeping the
    function total.
    """
    _check_blocks(num_blocks)
    require_int("num_groups", num_groups, 1)
    if num_groups == 1:
        return [num_blocks]
    if num_groups >= num_blocks:
        return [1] * num_blocks
    if num_groups * num_groups == num_blocks:
        return [num_groups] * num_groups
    per = num_blocks // (num_groups - 1)
    sizes = [per] * (num_groups - 1)
    rest = num_blocks - per * (num_groups - 1)
    if rest > 0:
        sizes.append(rest)
    return sizes


def tree_level_plan(num_blocks: int, levels: int) -> List[List[int]]:
    """Group sizes for every tree level, bottom-up.

    Returns ``levels`` lists; list ``l`` holds the group sizes at level
    ``l``.  The last list is the single top-level group of
    representatives.  Example: ``tree_level_plan(11, 2)`` →
    ``[[3, 3, 3, 2], [4]]``.

    This plan is shared by the analytic model (:func:`tree_cost`) and the
    executable barrier (:class:`repro.sync.GpuTreeSync`), so the two can
    never drift apart structurally.
    """
    _check_blocks(num_blocks)
    require_int("levels", levels, 2)
    plan: List[List[int]] = []
    remaining = num_blocks
    for level in range(levels - 1):
        k = levels - level
        m = tree_num_groups(remaining, k)
        sizes = tree_group_sizes(remaining, m)
        plan.append(sizes)
        remaining = len(sizes)
    plan.append([remaining])
    return plan


def tree_cost(
    num_blocks: int,
    levels: int = 2,
    timings: Optional[CalibratedTimings] = None,
    *,
    topology: Optional[Topology] = None,
) -> int:
    """Eq. 7 generalized to ``levels`` levels.

    2-level: ``t = (n̂·t_a + t_c1) + (m·t_a + t_c2)`` where
    ``n̂ = max_i n_i``.  Each level contributes its largest group's
    serialized atomics plus a spin observation and the per-level
    bookkeeping overhead; the closing ``__syncthreads()`` is charged once.

    On a multi-domain topology groups align with domains, so the leaf
    levels stay interconnect-free; only the representatives cross: one
    arrival per occupied remote domain at the combining level, plus one
    remote observation of the top-level release.
    """
    t = timings or default_timings()
    plan = tree_level_plan(num_blocks, levels)
    total = 0
    for sizes in plan:
        n_hat = max(sizes)
        total += n_hat * t.atomic_ns + t.spin_read_ns + t.tree_level_overhead_ns
    total += t.syncthreads_ns
    occupied = _occupied_domains(num_blocks, topology)
    if occupied > 1 and topology is not None:
        total += (occupied - 1) * topology.crossing_ns + topology.crossing_ns
    return total


def lockfree_cost(
    num_blocks: int,
    timings: Optional[CalibratedTimings] = None,
    *,
    topology: Optional[Topology] = None,
) -> int:
    """Eq. 9: ``t = t_SI + t_CI + t_Sync + t_SO + t_CO`` — independent of N.

    Critical path: store into ``Arrayin`` → checker observes →
    ``__syncthreads()`` in the checking block → store into ``Arrayout`` →
    leader observes → closing ``__syncthreads()`` — plus a fixed
    bookkeeping term.

    On a multi-domain topology the arrays are homed with the checker in
    domain 0, so the critical path gains exactly two crossings when any
    block is remote: the slowest remote ``Arrayin`` store and that
    block's ``Arrayout`` observation.  Per-block stores are parallel
    (no ``N``-proportional term), which is why lock-free degrades most
    gracefully under partitioning.
    """
    _check_blocks(num_blocks)
    t = timings or default_timings()
    cost = (
        t.lockfree_overhead_ns
        + t.global_write_ns  # t_SI
        + t.spin_read_ns  # t_CI
        + t.syncthreads_ns  # t_Sync
        + t.global_write_ns  # t_SO
        + t.spin_read_ns  # t_CO
        + t.syncthreads_ns  # closing barrier in every block
    )
    if _remote_blocks(num_blocks, topology) and topology is not None:
        cost += 2 * topology.crossing_ns
    return cost


def sense_reversal_cost(
    num_blocks: int, timings: Optional[CalibratedTimings] = None
) -> int:
    """Analytic cost of the centralized sense-reversing barrier.

    ``N·t_a`` serialized arrivals, then the last arriver's two stores
    (counter reset, then the sense flip — ordered, so both are exposed),
    then one observation and the closing ``__syncthreads()`` — i.e. the
    paper's Eq. 6 plus two global writes, which is exactly what the
    §5.1 goal-accumulation optimization saves.
    """
    _check_blocks(num_blocks)
    t = timings or default_timings()
    return (
        num_blocks * t.atomic_ns
        + 2 * t.global_write_ns
        + t.spin_read_ns
        + t.syncthreads_ns
    )


def dissemination_cost(
    num_blocks: int, timings: Optional[CalibratedTimings] = None
) -> int:
    """Analytic cost of the dissemination barrier.

    ``ceil(log2 N)`` rounds, each a remote store plus one observation of
    the incoming flag; all blocks proceed in lock-step so the critical
    path is the per-round cost times the round count, plus the closing
    ``__syncthreads()``.
    """
    _check_blocks(num_blocks)
    t = timings or default_timings()
    rounds = max(1, math.ceil(math.log2(num_blocks))) if num_blocks > 1 else 0
    return rounds * (t.global_write_ns + t.spin_read_ns) + t.syncthreads_ns


#: the paper's device barriers, by registered strategy name, and the
#: equation that prices each (Eqs. 6, 7/8 and 9).  Each entry takes
#: ``(num_blocks, *, timings, topology)``.
MODELED_BARRIERS: Dict[str, Callable[..., int]] = {
    "gpu-simple": simple_cost,
    "gpu-tree-2": partial(tree_cost, levels=2),
    "gpu-tree-3": partial(tree_cost, levels=3),
    "gpu-lockfree": lockfree_cost,
}


def barrier_cost(strategy: str, num_blocks: int, config: "DeviceConfig") -> int:
    """Modeled per-round cost (ns) of ``strategy``'s barrier on ``config``.

    Looks ``strategy`` up in :data:`MODELED_BARRIERS` and prices it with
    the device's calibrated timings and topology, so a multi-domain
    preset pays the interconnect crossings its barrier really makes.
    Raises :class:`~repro.errors.ConfigError` for an unmodeled strategy,
    a non-``DeviceConfig`` config or a bad ``num_blocks``.
    """
    from repro.gpu.config import DeviceConfig  # repro.gpu.config imports repro.model

    cost = MODELED_BARRIERS.get(strategy) if isinstance(strategy, str) else None
    if cost is None:
        raise ConfigError(
            f"no barrier model for {strategy!r}; "
            f"modeled: {', '.join(MODELED_BARRIERS)}"
        )
    if not isinstance(config, DeviceConfig):
        raise ConfigError(f"config must be a DeviceConfig, got {config!r}")
    return cost(num_blocks, timings=config.timings, topology=config.topology)
