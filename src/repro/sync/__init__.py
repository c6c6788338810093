"""Inter-block barrier synchronization strategies — the paper's contribution.

Five strategies (paper §4–5), all behind one interface
(:class:`~repro.sync.base.SyncStrategy`):

====================  ======  =====================================================
name                  mode    mechanism
====================  ======  =====================================================
``cpu-explicit``      host    relaunch per round + ``cudaThreadSynchronize()``
``cpu-implicit``      host    relaunch per round, launches pipeline (baseline)
``gpu-simple``        device  one global mutex: ``atomicAdd`` + spin (Eq. 6)
``gpu-tree-2/3/n``    device  tree of mutexes, groups of ``ceil(sqrt(N))`` (Eq. 7/8)
``gpu-lockfree``      device  ``Arrayin``/``Arrayout``, no atomics (Eq. 9)
``gpu-cluster-tree``  device  local arrive per domain, one crossing per domain
``null``              device  no barrier — compute-only timing runs (§7.3)
====================  ======  =====================================================

Every device barrier has the paper's frame (Figs. 6, 8, 9): the leading
thread runs a protocol, then ``__syncthreads()`` releases the block.
:meth:`SyncStrategy.barrier <repro.sync.base.SyncStrategy.barrier>` owns
that frame — the prepare and grid checks, the sanitizer-probe and
hang-fault hooks, the closing ``__syncthreads()`` and the ``sync`` span —
so each strategy implements only its ``protocol`` and allocates its
state in ``prepare`` after ``super().prepare(...)``.  The hooks run
whoever calls the barrier: the runner or a hand-written kernel.

Device strategies enforce the safety rule through the device topology
(:mod:`repro.gpu.topology`): under the paper's exclusive co-residency
they request an SM's full shared memory and validate the grid against
``num_sms`` (at most one block per SM), because blocks are
non-preemptive and an over-subscribed grid would spin forever (see
``examples/deadlock_demo.py``); under cooperative co-residency the grid
is validated against the launched shape's actual co-resident capacity.
"""

from repro.sync.base import SyncStrategy, get_strategy, strategy_names
from repro.sync.cluster import GpuClusterTreeSync
from repro.sync.cpu import CpuExplicitSync, CpuImplicitSync
from repro.sync.extensions import GpuDisseminationSync, GpuSenseReversalSync
from repro.sync.gpu_lockfree import GpuLockFreeSync
from repro.sync.gpu_simple import GpuSimpleSync
from repro.sync.gpu_tree import GpuTreeSync
from repro.sync.null import NullSync

__all__ = [
    "CpuExplicitSync",
    "CpuImplicitSync",
    "GpuClusterTreeSync",
    "GpuDisseminationSync",
    "GpuLockFreeSync",
    "GpuSenseReversalSync",
    "GpuSimpleSync",
    "GpuTreeSync",
    "NullSync",
    "SyncStrategy",
    "get_strategy",
    "strategy_names",
]
