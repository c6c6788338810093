"""The barrier cost model agrees with the simulator on every preset.

Paper §5.4: "the time needed for each GPU synchronization approach
matches the time consumption model well".  Every preset × every modeled
barrier × the ``repro models`` block grid (1, 2, 4, 8, 16, 24, 30,
clamped to the preset's co-residency limit) compares
:func:`~repro.model.barrier_costs.barrier_cost` with the simulated
per-round cost, :func:`~repro.harness.phases.probe_barrier_cost` over
50 rounds.  Deviation is ``(measured − model) / model``, as the
``models`` table prints it.

Points the model is known to miss are listed in :data:`KNOWN_GAPS`
with their measured deviation.  A gap must still exceed its strategy's
tolerance: a change that closes one fails here until its entry is
deleted.
"""

import pytest

from repro.gpu.presets import get_preset, preset_names
from repro.harness.phases import probe_barrier_cost
from repro.model.barrier_costs import MODELED_BARRIERS, barrier_cost

ROUNDS = 50

#: the block grid of ``repro models``.
BLOCKS = (1, 2, 4, 8, 16, 24, 30)

#: largest |deviation| (%) accepted per barrier outside the known gaps.
TOLERANCE_PCT = {
    # The multi-domain surcharge runs above the simulator (dual_gpu
    # −9.6 % at 8 blocks, riscv_cluster_1024 −6.0 % at 2); the paper
    # presets are exact.
    "gpu-simple": 10.0,
    "gpu-tree-2": 2.0,
    "gpu-tree-3": 2.0,
    "gpu-lockfree": 1.0,
}

#: (preset, strategy, blocks) -> measured deviation (%).
KNOWN_GAPS = {
    # Unbalanced 3-level partitions: Eq. 7 assumes every block and
    # representative arrives at once, so it is an upper bound; the
    # simulator overlaps early groups' atomics with late ones
    # (EXPERIMENTS.md E7 and deviation 2).
    ("gtx280", "gpu-tree-3", 16): -11.7,
    ("gtx280", "gpu-tree-3", 30): -5.8,
    ("grid_sync", "gpu-tree-3", 16): -6.8,
    ("grid_sync", "gpu-tree-3", 30): -3.4,
    # dual_gpu trees: the model assumes groups aligned with the two
    # devices, but every group mutex is homed in domain 0, so remote
    # leaves cross the interconnect at every level.
    ("dual_gpu", "gpu-tree-2", 2): 56.2,
    ("dual_gpu", "gpu-tree-2", 4): 82.7,
    ("dual_gpu", "gpu-tree-2", 8): 129.0,
    ("dual_gpu", "gpu-tree-2", 16): 139.4,
    ("dual_gpu", "gpu-tree-2", 24): 174.8,
    ("dual_gpu", "gpu-tree-2", 30): 165.2,
    ("dual_gpu", "gpu-tree-3", 2): 101.6,
    ("dual_gpu", "gpu-tree-3", 4): 122.8,
    ("dual_gpu", "gpu-tree-3", 8): 142.4,
    ("dual_gpu", "gpu-tree-3", 16): 134.2,
    ("dual_gpu", "gpu-tree-3", 24): 193.0,
    ("dual_gpu", "gpu-tree-3", 30): 158.6,
    # Lock-free while every block sits alone in its domain: two
    # crossings more than the model's two (+3,000 ns on dual_gpu at 2
    # blocks, +500 ns on riscv_cluster_1024 at 2-16 blocks; ROADMAP
    # item 3(c)).  With two or more blocks per domain it is exact.
    ("dual_gpu", "gpu-lockfree", 2): 65.2,
    ("riscv_cluster_1024", "gpu-lockfree", 2): 54.3,
    ("riscv_cluster_1024", "gpu-lockfree", 4): 54.3,
    ("riscv_cluster_1024", "gpu-lockfree", 8): 54.3,
    ("riscv_cluster_1024", "gpu-lockfree", 16): 54.3,
    # riscv_cluster_1024 trees: the model charges one crossing per
    # occupied domain, but the tree's groups do not follow the 16
    # domains; it under-charges at 2-4 blocks and over-charges from 8.
    ("riscv_cluster_1024", "gpu-tree-2", 2): 47.9,
    ("riscv_cluster_1024", "gpu-tree-2", 4): 14.0,
    ("riscv_cluster_1024", "gpu-tree-2", 8): -11.2,
    ("riscv_cluster_1024", "gpu-tree-2", 16): -38.4,
    ("riscv_cluster_1024", "gpu-tree-2", 24): -27.2,
    ("riscv_cluster_1024", "gpu-tree-2", 30): -21.8,
    ("riscv_cluster_1024", "gpu-tree-3", 2): 83.5,
    ("riscv_cluster_1024", "gpu-tree-3", 4): 42.0,
    ("riscv_cluster_1024", "gpu-tree-3", 16): -33.1,
    ("riscv_cluster_1024", "gpu-tree-3", 24): -26.6,
    ("riscv_cluster_1024", "gpu-tree-3", 30): -27.2,
}


def _points():
    for preset in preset_names():
        cfg = get_preset(preset)
        limit = cfg.topology.max_co_resident_blocks(cfg)
        for strategy in MODELED_BARRIERS:
            for blocks in BLOCKS:
                if blocks <= limit:
                    yield preset, strategy, blocks


POINTS = list(_points())


def test_every_modeled_barrier_has_a_tolerance():
    assert set(TOLERANCE_PCT) == set(MODELED_BARRIERS)


def test_known_gaps_name_real_points():
    assert set(KNOWN_GAPS) <= set(POINTS)


@pytest.mark.parametrize(
    "preset,strategy,blocks", POINTS, ids=[f"{p}-{s}-{n}" for p, s, n in POINTS]
)
def test_model_matches_simulation(preset, strategy, blocks):
    cfg = get_preset(preset)
    model = barrier_cost(strategy, blocks, cfg)
    measured = probe_barrier_cost(strategy, blocks, cfg, ROUNDS)
    deviation = 100.0 * (measured - model) / model
    tolerance = TOLERANCE_PCT[strategy]
    gap = KNOWN_GAPS.get((preset, strategy, blocks))
    if gap is None:
        assert abs(deviation) <= tolerance, (
            f"model {model} ns vs measured {measured:.0f} ns: "
            f"{deviation:+.1f} % exceeds ±{tolerance} %"
        )
    else:
        assert deviation == pytest.approx(gap, abs=0.1)
        assert abs(deviation) > tolerance, (
            "this known gap is closed: delete its KNOWN_GAPS entry"
        )
