"""Repo-root pytest configuration.

Loads the sanitizer's pytest plugin (``--sanitize``, ``--fuzz-seed``,
``--fuzz-schedules`` and the ``fuzz_schedules``/``sanitized_run``
fixtures — see docs/sanitizer.md) and the static linter's plugin
(``--staticcheck`` plus the ``lint_strategy_report``/
``lint_source_report`` fixtures — see docs/staticcheck.md).
``pytest_plugins`` must live in the rootdir conftest, hence this file.
"""

import sys
from pathlib import Path

# The suite is normally run with PYTHONPATH=src; make the plugin import
# (which happens before any test) work without it too.
_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# pytester drives the plugins' own tests (tests/sanitize/test_plugin.py,
# tests/staticcheck/test_plugin.py).
pytest_plugins = (
    "repro.sanitize.pytest_plugin",
    "repro.staticcheck.pytest_plugin",
    "pytester",
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/runs.json and tests/golden/cli.json (and, "
        "with --paper-golden, tests/golden/paper.json) from the current "
        "code instead of checking against them (tests/test_golden.py, "
        "tests/test_cli_golden.py, tests/test_paper_golden.py)",
    )
    parser.addoption(
        "--paper-golden",
        action="store_true",
        default=False,
        help="run tests/test_paper_golden.py: `all` at the paper's settings "
        "(about five minutes)",
    )
