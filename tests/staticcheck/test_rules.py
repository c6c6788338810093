"""One positive and one near-miss negative fixture per SC rule.

Every positive snippet is the *minimal* version of a bug the dynamic
sanitizer can only find by running schedules; every negative is the
closest legitimate idiom (usually one actually shipped in
``src/repro/sync``), so these tests pin both the detection and the
false-positive boundary of each rule.
"""

from repro.staticcheck import lint_source


def codes(source):
    return lint_source(source, "<fixture>").codes()


# -- SC001: barrier divergence ----------------------------------------------

SC001_POS = """
class SkipSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        if ctx.block_id == ctx.num_blocks - 1:
            return
        yield from ctx.atomic_add(self._m, 0, 1)
        yield from ctx.spin_until(
            self._m, lambda: self._m.data[0] >= 1, "go"
        )
"""

# Near miss: same early return, but on round index — every block takes
# the same branch, so no divergence.
SC001_NEG = """
class RoundGateSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        if round_idx < 0:
            return
        yield from ctx.atomic_add(self._m, 0, 1)
        yield from ctx.spin_until(
            self._m, lambda: self._m.data[0] >= 1, "go"
        )
"""

# Near miss: block-dependent *asymmetric work* that still reaches the
# closing barrier yields on every path (the Fig. 9 checker-block shape).
SC001_NEG_CHECKER = """
class CheckerSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        if ctx.block_id == 0:
            yield from ctx.gwrite(self._out, 0, 1)
        yield from ctx.spin_until(
            self._out, lambda: self._out.data[0] >= 1, "go"
        )
        yield from ctx.gwrite(self._out, 0, 1)
"""


def test_sc001_flags_block_dependent_barrier_skip():
    assert codes(SC001_POS) == ["SC001"]


def test_sc001_ignores_uniform_early_return():
    assert codes(SC001_NEG) == []


def test_sc001_ignores_checker_asymmetry_that_still_synchronizes():
    assert codes(SC001_NEG_CHECKER) == []


# -- SC002: static occupancy violation ---------------------------------------

SC002_POS = """
BLOCKS = 64
def main():
    run(micro, "gpu-simple", num_blocks=BLOCKS)
"""

SC002_NEG_HOST = """
def main():
    run(micro, "cpu-implicit", num_blocks=64)
"""

SC002_NEG_FITS = """
def main():
    run(micro, "gpu-simple", num_blocks=30)
"""


def test_sc002_flags_device_grid_past_sm_count():
    assert codes(SC002_POS) == ["SC002"]


def test_sc002_ignores_host_strategies_and_fitting_grids():
    assert codes(SC002_NEG_HOST) == []
    assert codes(SC002_NEG_FITS) == []


# A grid legal on a cooperative-launch device but fatal on the paper's
# GTX 280: the verdict must follow the preset's co-residency policy, not
# a hard-coded 30.
SC002_COOPERATIVE = """
def main():
    run(micro, "gpu-simple", num_blocks=96)
"""


def test_sc002_limit_is_preset_policy_not_a_constant():
    from repro.staticcheck import lint_source, sm_limit_for_preset

    flagged = lint_source(
        SC002_COOPERATIVE,
        "<fixture>",
        sm_limit=sm_limit_for_preset("gtx280"),
    )
    assert flagged.codes() == ["SC002"]
    assert "co-residency limit" in flagged.findings[0].message

    clean = lint_source(
        SC002_COOPERATIVE,
        "<fixture>",
        sm_limit=sm_limit_for_preset("grid_sync"),
    )
    assert clean.codes() == []


def test_sm_limit_for_preset_resolves_through_the_topology():
    from repro.staticcheck import sm_limit_for_preset

    assert sm_limit_for_preset("gtx280") == 30  # exclusive: one per SM
    assert sm_limit_for_preset("fermi_class") == 15
    assert sm_limit_for_preset("grid_sync") == 80 * 32  # cooperative


# -- SC003: stale spin read --------------------------------------------------

SC003_POS = """
def kernel(ctx):
    snapshot = 0
    yield from ctx.spin_until(flags, lambda s=snapshot: s >= 1, "stale")
"""

SC003_NEG = """
def kernel(ctx):
    yield from ctx.spin_until(
        flags, lambda: flags.data[0] >= 1, "fresh"
    )
"""

SC003_POS_WHILE = """
def kernel(ctx):
    done = False
    while not done:
        yield from ctx.compute(1)
"""

SC003_NEG_WHILE = """
def kernel(ctx):
    done = False
    while not done:
        done = ctx.gread_now(flags, 0) >= 1
        yield from ctx.compute(1)
"""


def test_sc003_flags_predicate_over_captured_snapshot():
    assert codes(SC003_POS) == ["SC003"]


def test_sc003_accepts_predicate_that_rereads_memory():
    assert codes(SC003_NEG) == []


def test_sc003_flags_wait_loop_with_loop_invariant_condition():
    assert codes(SC003_POS_WHILE) == ["SC003"]


def test_sc003_accepts_wait_loop_that_updates_its_condition():
    assert codes(SC003_NEG_WHILE) == []


# -- SC004: unguarded atomic arrival -----------------------------------------

SC004_POS = """
def kernel(ctx):
    for i in range(4):
        yield from ctx.atomic_add(mutex, 0, 1)
"""

# Near miss: the tree barrier's shape — the atomic target varies with
# the loop level, so each iteration arrives at a *different* barrier.
SC004_NEG = """
def kernel(ctx):
    for level in range(4):
        mutex = mutexes[level]
        yield from ctx.atomic_add(mutex, 0, 1)
"""


def test_sc004_flags_repeated_arrival_on_fixed_cell():
    assert codes(SC004_POS) == ["SC004"]


def test_sc004_accepts_per_level_atomics():
    assert codes(SC004_NEG) == []


# -- SC005: goalVal anti-patterns --------------------------------------------

SC005_POS_RESET = """
class ResetSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        yield from ctx.atomic_add(self._count, 0, 1)
        yield from ctx.spin_until(
            self._count, lambda: self._count.data[0] >= 1, "all in",
        )
        yield from ctx.gwrite(self._count, 0, 0)
"""

# Near miss: a reset of a *different* array than the arrival counter
# (publishing a result is not the anti-pattern).
SC005_NEG_RESET = """
class PublishSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        yield from ctx.atomic_add(self._count, 0, 1)
        yield from ctx.spin_until(
            self._count, lambda: self._count.data[0] >= 1, "all in",
        )
        yield from ctx.gwrite(self._result, 0, 0)
"""

SC005_POS_GOAL = """
class UnderCountSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        n = ctx.num_blocks
        goal = round_idx * n + 1
        yield from ctx.atomic_add(self._m, 0, 1)
        yield from ctx.spin_until(
            self._m, lambda: self._m.data[0] >= goal, "go"
        )
"""

SC005_NEG_GOAL = """
class AccumulateSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        n = ctx.num_blocks
        goal = (round_idx + 1) * n
        yield from ctx.atomic_add(self._m, 0, 1)
        yield from ctx.spin_until(
            self._m, lambda: self._m.data[0] >= goal, "go"
        )
"""


def test_sc005_flags_counter_reset():
    assert codes(SC005_POS_RESET) == ["SC005"]


def test_sc005_ignores_reset_of_non_counter_state():
    assert codes(SC005_NEG_RESET) == []


def test_sc005_flags_non_multiple_goal():
    assert codes(SC005_POS_GOAL) == ["SC005"]


def test_sc005_accepts_accumulating_goal():
    assert codes(SC005_NEG_GOAL) == []


# -- SC006: shared-memory race -----------------------------------------------

SC006_POS = """
def kernel(ctx):
    yield from ctx.swrite(buf, tid, 1)
    yield from ctx.sread(buf, tid + 1)
"""

SC006_NEG = """
def kernel(ctx):
    yield from ctx.swrite(buf, tid, 1)
    yield from ctx.syncthreads()
    yield from ctx.sread(buf, tid + 1)
"""

SC006_NEG_SAME_INDEX = """
def kernel(ctx):
    yield from ctx.swrite(buf, tid, 1)
    yield from ctx.sread(buf, tid)
"""


def test_sc006_flags_unsynchronized_cross_index_access():
    assert codes(SC006_POS) == ["SC006"]


def test_sc006_accepts_syncthreads_separation_and_private_cells():
    assert codes(SC006_NEG) == []
    assert codes(SC006_NEG_SAME_INDEX) == []


# -- SC007: under-sized flag array -------------------------------------------

SC007_POS = """
class FixedFlagsSync(SyncStrategy):
    def prepare(self, device, num_blocks):
        self._flags = device.alloc("flags", 8)

    def barrier(self, ctx, round_idx):
        yield from ctx.gwrite(self._flags, ctx.block_id, 1)
"""

SC007_NEG = """
class ScaledFlagsSync(SyncStrategy):
    def prepare(self, device, num_blocks):
        self._flags = device.alloc("flags", num_blocks)

    def barrier(self, ctx, round_idx):
        yield from ctx.gwrite(self._flags, ctx.block_id, 1)
"""

# Near miss: constant-sized array indexed by a *constant*, not by block
# identity (a single shared counter cell is legitimately size 1).
SC007_NEG_SCALAR = """
class CounterSync(SyncStrategy):
    def prepare(self, device, num_blocks):
        self._count = device.alloc("count", 1)

    def barrier(self, ctx, round_idx):
        yield from ctx.atomic_add(self._count, 0, 1)
"""


def test_sc007_flags_constant_sized_per_block_array():
    assert codes(SC007_POS) == ["SC007"]


def test_sc007_accepts_grid_scaled_and_scalar_allocations():
    assert codes(SC007_NEG) == []
    assert codes(SC007_NEG_SCALAR) == []


def test_sc007_tracks_num_blocks_through_locals():
    derived = SC007_NEG.replace(
        'device.alloc("flags", num_blocks)',
        'device.alloc("flags", size)',
    ).replace(
        "self._flags = ",
        "size = num_blocks * 2\n        self._flags = ",
    )
    assert codes(derived) == []


# -- SC008: unreleased synchronization path ----------------------------------

SC008_POS_EFFECT = """
def worker(unit, res):
    yield Acquire(res)
    if res.busy:
        return
    yield Release(res)
"""

SC008_NEG_EFFECT = """
def worker(unit, res):
    yield Acquire(res)
    try:
        yield Delay(10)
    finally:
        yield Release(res)
"""

SC008_POS_CLASS = """
class NoScatterSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        yield from ctx.gwrite(self._arr_in, ctx.block_id, 1)
        yield from ctx.spin_until(
            self._arr_out, lambda: self._arr_out.data[0] >= 1, "released",
        )
"""

SC008_NEG_CLASS = """
class ScatterSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        yield from ctx.gwrite(self._arr_in, ctx.block_id, 1)
        yield from self._scatter(ctx)
        yield from ctx.spin_until(
            self._arr_out, lambda: self._arr_out.data[0] >= 1, "released",
        )

    def _scatter(self, ctx):
        yield from ctx.gwrite(self._arr_out, ctx.block_id, 1)
"""


def test_sc008_flags_acquire_with_release_free_exit_path():
    assert codes(SC008_POS_EFFECT) == ["SC008"]


def test_sc008_accepts_release_on_every_path():
    assert codes(SC008_NEG_EFFECT) == []


def test_sc008_flags_spin_on_never_written_array():
    assert codes(SC008_POS_CLASS) == ["SC008"]


def test_sc008_accepts_scatter_in_helper_method():
    assert codes(SC008_NEG_CLASS) == []


# -- shipped code stays clean -------------------------------------------------


def test_every_positive_fixture_reports_exactly_one_code():
    positives = [
        SC001_POS,
        SC002_POS,
        SC003_POS,
        SC004_POS,
        SC005_POS_RESET,
        SC005_POS_GOAL,
        SC006_POS,
        SC007_POS,
        SC008_POS_EFFECT,
        SC008_POS_CLASS,
    ]
    for src in positives:
        found = codes(src)
        assert len(found) == 1, f"fixture reported {found}:\n{src}"
