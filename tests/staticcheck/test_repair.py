"""The repair engine: span patcher, fixed-point driver, properties.

The two properties the tentpole pins down ride on Hypothesis:
re-applying an applied fix is a no-op, and overlapping edits raise the
typed :class:`FixConflictError` instead of corrupting source.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.staticcheck.engine import lint_source
from repro.staticcheck.repair import (
    Fix,
    FixConflictError,
    FixVerificationError,
    SpanEdit,
    apply_edits,
    apply_fixes,
    fix_paths,
    fix_source,
)

#: a barrier whose arrival goal undercounts the grid: one auto-fixable
#: SC005 finding (the goal becomes ``(round_idx + 1) * n``).
FIXABLE = '''\
"""A barrier whose goal undercounts the grid (auto-fixable SC005)."""

from repro.sync.base import SyncStrategy


class UnderCountSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        n = ctx.num_blocks
        goal = round_idx * n + 1
        yield from ctx.atomic_add(self._m, 0, 1)
        yield from ctx.spin_until(
            self._m, lambda: self._m.data[0] >= goal, "go"
        )
'''

# ---------------------------------------------------------------------------
# SpanEdit / Fix validation
# ---------------------------------------------------------------------------


def test_span_edit_rejects_backwards_span():
    with pytest.raises(ValueError):
        SpanEdit((2, 0), (1, 0), "x", "y")


def test_span_edit_rejects_identity_replacement():
    with pytest.raises(ValueError):
        SpanEdit((1, 0), (1, 1), "x", "x")


def test_fix_requires_edits():
    with pytest.raises(ValueError):
        Fix(code="SC005", description="empty", edits=())


# ---------------------------------------------------------------------------
# The span patcher
# ---------------------------------------------------------------------------


def test_apply_single_replacement():
    src = "alpha\nbeta\ngamma\n"
    edit = SpanEdit((2, 0), (2, 4), "beta", "delta")
    assert apply_edits(src, [edit]) == "alpha\ndelta\ngamma\n"


def test_apply_pure_insertion():
    src = "a\nc\n"
    edit = SpanEdit((2, 0), (2, 0), "", "b\n")
    assert apply_edits(src, [edit]) == "a\nb\nc\n"


def test_apply_insertion_at_eof():
    src = "a\n"
    edit = SpanEdit((2, 0), (2, 0), "", "b\n")
    assert apply_edits(src, [edit]) == "a\nb\n"


def test_apply_deletion_spanning_lines():
    src = "a\nb\nc\nd\n"
    edit = SpanEdit((2, 0), (4, 0), "b\nc\n", "")
    assert apply_edits(src, [edit]) == "a\nd\n"


def test_stale_span_raises_typed_conflict():
    src = "alpha\n"
    edit = SpanEdit((1, 0), (1, 5), "omega", "delta")
    with pytest.raises(FixConflictError, match="stale"):
        apply_edits(src, [edit])


def test_position_past_eof_raises_conflict():
    edit = SpanEdit((9, 0), (9, 1), "x", "y")
    with pytest.raises(FixConflictError):
        apply_edits("a\n", [edit])


def test_overlapping_edits_raise_before_any_patching():
    src = "abcdef\n"
    a = SpanEdit((1, 0), (1, 3), "abc", "X")
    b = SpanEdit((1, 2), (1, 5), "cde", "Y")
    with pytest.raises(FixConflictError, match="overlapping"):
        apply_edits(src, [a, b])


def test_same_point_insertions_conflict():
    src = "ab\n"
    a = SpanEdit((1, 1), (1, 1), "", "X")
    b = SpanEdit((1, 1), (1, 1), "", "Y")
    with pytest.raises(FixConflictError, match="overlapping"):
        apply_edits(src, [a, b])


def test_exact_duplicate_edits_collapse():
    src = "ab\n"
    edit = SpanEdit((1, 1), (1, 1), "", "X")
    assert apply_edits(src, [edit, edit]) == "aXb\n"


def test_apply_fixes_batches_all_edits():
    src = "foo\nbar\n"
    fx = Fix(
        code="SC005",
        description="demo",
        edits=(
            SpanEdit((1, 0), (1, 3), "foo", "FOO"),
            SpanEdit((2, 0), (2, 3), "bar", "BAR"),
        ),
    )
    assert apply_fixes(src, [fx]) == "FOO\nBAR\n"


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

_TEXT = st.text(alphabet="ab\nc ", min_size=0, max_size=60)
_REPL = st.text(alphabet="xy\nz ", min_size=1, max_size=12)


def _pos(source, offset):
    """(line, col) of an absolute offset, matching SpanEdit convention."""
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return (line, offset - (last_nl + 1))


@settings(max_examples=200)
@given(source=_TEXT, data=st.data())
def test_property_reapplying_an_applied_fix_is_a_noop(source, data):
    """apply(fix); apply(fix) == apply(fix) for replacement-bearing
    edits (pure deletions have no already-applied signature and are
    documented to conflict instead)."""
    i = data.draw(st.integers(0, len(source)), label="start")
    j = data.draw(st.integers(i, len(source)), label="end")
    replacement = data.draw(_REPL, label="replacement")
    original = source[i:j]
    if original == replacement:
        return
    fx = Fix(
        code="SC005",
        description="property",
        edits=(SpanEdit(_pos(source, i), _pos(source, j), original, replacement),),
    )
    once = apply_fixes(source, [fx])
    assert apply_fixes(once, [fx]) == once


@settings(max_examples=200)
@given(source=st.text(alphabet="abc\n", min_size=3, max_size=60), data=st.data())
def test_property_overlapping_spans_raise_typed_conflict(source, data):
    """Two distinct edits over genuinely overlapping spans never patch —
    they raise FixConflictError, leaving the source untouched."""
    i = data.draw(st.integers(0, len(source) - 3), label="start")
    j = data.draw(st.integers(i + 3, len(source)), label="end")
    k = data.draw(st.integers(i + 2, j - 1), label="overlap")
    # first spans [i, k), second spans [i+1, j): i+1 < k, so they overlap.
    first = SpanEdit(_pos(source, i), _pos(source, k), source[i:k], "<A>")
    second = SpanEdit(_pos(source, i + 1), _pos(source, j), source[i + 1 : j], "<B>")
    with pytest.raises(FixConflictError):
        apply_edits(source, [first, second])


# ---------------------------------------------------------------------------
# The fixed-point driver
# ---------------------------------------------------------------------------


def test_fix_source_repairs_goal_fixture_to_clean():
    result = fix_source(FIXABLE, "<fixture>")
    assert [a.code for a in result.applied] == ["SC005"]
    assert result.remaining == []
    assert result.changed
    assert "goal = (round_idx + 1) * n" in result.fixed
    assert lint_source(result.fixed).clean


def test_fix_source_is_a_fixed_point():
    once = fix_source(FIXABLE, "<fixture>")
    again = fix_source(once.fixed, "<fixture>")
    assert not again.changed
    assert again.applied == []
    assert again.iterations == 0


def test_fix_source_within_scopes_the_repair():
    # The fixture's class spans lines 6+; a window above it fixes nothing.
    result = fix_source(FIXABLE, "<fixture>", within=(1, 3))
    assert not result.changed
    assert result.applied == []


def test_fix_source_clean_input_is_identity():
    clean = "def helper(x):\n    return x + 1\n"
    result = fix_source(clean, "<clean>")
    assert not result.changed
    assert result.fixed == clean
    assert result.iterations == 0


def test_fix_result_diff_and_dict_shape():
    result = fix_source(FIXABLE, "fixture.py")
    diff = result.diff()
    assert diff.startswith("--- a/fixture.py")
    assert "+        goal = (round_idx + 1) * n" in diff
    payload = result.to_dict()
    assert payload["changed"] is True
    assert payload["applied"][0]["code"] == "SC005"
    assert payload["remaining"] == []


def test_fix_verification_error_is_typed():
    # A finding whose "fix" does not remove it must be disproved by the
    # re-lint, not reported as repaired.
    from repro.staticcheck.report import StaticFinding

    finding = StaticFinding(
        code="SC005",
        message="synthetic",
        file="<x>",
        line=1,
        unit="kernel",
        fixes=(
            Fix(
                code="SC005",
                description="does not help",
                edits=(SpanEdit((1, 0), (1, 0), "", "# nop\n"),),
            ),
        ),
    )

    import repro.staticcheck.repair as repair_mod

    real_lint = lint_source
    source = FIXABLE

    def fake_lint(text, path, **kwargs):
        report = real_lint(text, path, **kwargs)
        report.findings = [finding]
        return report

    original = repair_mod.fix_source.__globals__  # sanity: module intact
    assert "apply_edits" in original
    import repro.staticcheck.engine as engine_mod

    try:
        engine_mod_lint = engine_mod.lint_source
        engine_mod.lint_source = fake_lint
        with pytest.raises(FixVerificationError):
            fix_source(source, "<x>")
    finally:
        engine_mod.lint_source = engine_mod_lint


def test_fix_paths_dry_run_leaves_files_untouched(tmp_path):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE)
    results = fix_paths([tmp_path])
    assert len(results) == 1
    assert results[0].changed
    assert target.read_text() == FIXABLE  # write=False: untouched


def test_fix_paths_write_repairs_in_place(tmp_path):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE)
    results = fix_paths([tmp_path], write=True)
    assert results[0].changed
    on_disk = target.read_text()
    assert on_disk == results[0].fixed
    assert lint_source(on_disk).clean
    # Second pass over the repaired tree is a no-op.
    assert not fix_paths([tmp_path], write=True)[0].changed


def test_shipped_tree_is_fix_clean():
    """The dogfooded repo has no pending machine-applicable repairs."""
    results = fix_paths(["src/repro", "examples"])
    assert all(not r.changed for r in results)
