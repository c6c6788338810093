"""The ``lint`` CLI verb: paths, formats, exit codes."""

import json

import pytest

from repro.harness.cli import main

BROKEN_SOURCE = """\
def kernel(ctx):
    snapshot = 0
    yield from ctx.spin_until(flags, lambda s=snapshot: s >= 1, "stale")
"""

WARNING_SOURCE = """\
class ResetSync(SyncStrategy):
    def barrier(self, ctx, round_idx):
        yield from ctx.atomic_add(self._count, 0, 1)
        yield from ctx.spin_until(
            self._count, lambda: self._count.data[0] >= 1, "in"
        )
        yield from ctx.gwrite(self._count, 0, 0)
"""


def test_lint_defaults_to_shipped_tree_and_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "suppressed" in out


def test_lint_explicit_paths_text_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BROKEN_SOURCE)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[SC003 error]" in out
    assert f"{bad}:3:" in out


def test_lint_json_format_uses_envelope(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BROKEN_SOURCE)
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "lint-report"
    assert payload["findings"][0]["code"] == "SC003"


def test_lint_strict_promotes_warnings_to_failures(tmp_path, capsys):
    warn = tmp_path / "warn.py"
    warn.write_text(WARNING_SOURCE)
    assert main(["lint", str(warn)]) == 0  # SC005 is warning severity
    capsys.readouterr()
    assert main(["lint", str(warn), "--strict"]) == 1
    assert "[SC005 warning]" in capsys.readouterr().out


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "/no/such/path"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_lint_syntax_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert main(["lint", str(bad)]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_lint_report_loads_via_store(tmp_path, capsys):
    from repro.harness.store import load_result
    from repro.staticcheck.report import LintReport

    bad = tmp_path / "bad.py"
    bad.write_text(BROKEN_SOURCE)
    main(["lint", str(bad), "--format", "json"])
    out_file = tmp_path / "lint.json"
    out_file.write_text(capsys.readouterr().out)
    loaded = load_result(out_file)
    assert isinstance(loaded, LintReport)
    assert loaded.codes() == ["SC003"]


def test_positional_paths_rejected_for_other_experiments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "src/repro"])
    assert exc.value.code == 2


# -- lint --fix [--diff|--check] ----------------------------------------------

FIXABLE_SOURCE = '''\
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


def test_lint_fix_writes_repairs_in_place(tmp_path, capsys):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE_SOURCE)
    assert main(["lint", str(target), "--fix"]) == 0
    out = capsys.readouterr().out
    assert "fixed 1 finding(s) in 1 file(s)" in out
    assert "[SC005]" in out
    on_disk = target.read_text()
    assert "goal = (round_idx + 1) * n" in on_disk
    capsys.readouterr()
    # The repaired file now lints clean and re-fixing is a no-op.
    assert main(["lint", str(target), "--strict"]) == 0
    capsys.readouterr()
    assert main(["lint", str(target), "--fix", "--check"]) == 0


def test_lint_fix_diff_is_a_dry_run(tmp_path, capsys):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE_SOURCE)
    assert main(["lint", str(target), "--fix", "--diff"]) == 0
    out = capsys.readouterr().out
    assert f"--- a/{target}" in out
    assert "+        goal = (round_idx + 1) * n" in out
    assert target.read_text() == FIXABLE_SOURCE  # untouched


def test_lint_fix_check_gates_on_pending_repairs(tmp_path, capsys):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE_SOURCE)
    assert main(["lint", str(target), "--fix", "--check"]) == 1
    out = capsys.readouterr().out
    assert "would fix 1 finding(s)" in out
    assert target.read_text() == FIXABLE_SOURCE  # --check never writes


def test_lint_fix_json_uses_fix_report_envelope(tmp_path, capsys):
    target = tmp_path / "spin.py"
    target.write_text(FIXABLE_SOURCE)
    assert main(["lint", str(target), "--fix", "--check", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "fix-report"
    assert payload["schema"] == 3
    assert payload["files_changed"] == 1
    assert payload["fixes_applied"] == 1
    assert payload["written"] is False
    assert payload["results"][0]["applied"][0]["code"] == "SC005"


def test_lint_fix_check_clean_on_shipped_tree(capsys):
    """The dogfooded repo is fix-clean: the CI gate passes."""
    assert main(["lint", "--fix", "--check"]) == 0
    assert "would fix 0 finding(s)" in capsys.readouterr().out


def test_diff_and_check_require_fix():
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--check"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--fix", "--diff", "--check"])
    assert exc.value.code == 2


def test_fix_rejected_outside_lint():
    with pytest.raises(SystemExit) as exc:
        main(["models", "--fix"])
    assert exc.value.code == 2
