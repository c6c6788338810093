"""Cross-commit CLI goldens: the exit code and stdout of fixed invocations.

``tests/golden/cli.json`` maps each invocation (its argv joined by
spaces) to the exit code of :func:`repro.harness.cli.main` and the
SHA-256 of everything it printed on stdout.  The verbs run in process.
The ``[<verb> completed in Ns]`` epilogue and typed-error messages go to
stderr, so no wall-clock text reaches the hash.

The invocations cover the cost-model verbs on every preset:

* ``models --preset P``;
* ``tune --preset P --blocks N --rounds 100 --strategy gpu-simple`` for
  N in {4, 30}, clamped to the preset's co-residency limit;
* ``tune --blocks 200`` with a host and a device strategy, a grid beyond
  the paper card's 30-block limit;

and the campaign, lint and paper verbs on the default preset:

* CI's sanitizer and chaos smoke passes (``--strategy all``), and
  ``chaos --plans 25`` on every other registered strategy except the
  ``broken-*`` mutants and ``null``;
* ``chaos --blocks 31 --plans 3``, a grid past the paper card's
  co-residency limit;
* ``sanitize --schedules 3`` on each ``broken-*`` mutant (exit 1);
* ``lint src/repro examples --strict`` and ``lint --fix --check``;
* ``fig11 --rounds 20`` and ``table1``;
* the bad inputs the CLI refuses: seven that exit 1 with a typed error,
  and thirteen usage errors (an unknown verb, a missing or foreign
  flag, a bad flag combination or value) for which ``main`` raises
  ``SystemExit(2)``; the recorder records that code.

The file changes only through ``pytest tests/test_cli_golden.py
--update-golden``; a change that moves an entry must say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.gpu.presets import get_preset, preset_names
from repro.harness.cli import CHAOS_ALL, main
from repro.sync.base import strategy_names

GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def _invocations() -> List[List[str]]:
    argvs = [["models", "--preset", preset] for preset in preset_names()]
    for preset in preset_names():
        cfg = get_preset(preset)
        limit = cfg.topology.max_co_resident_blocks(cfg)
        for blocks in sorted({min(4, limit), min(30, limit)}):
            argvs.append(["tune", "--preset", preset, "--blocks", str(blocks),
                          "--rounds", "100", "--strategy", "gpu-simple"])
    for strategy in ("cpu-implicit", "gpu-lockfree"):
        argvs.append(["tune", "--blocks", "200", "--strategy", strategy])
    argvs.append(["sanitize", "--strategy", "all", "--blocks", "8",
                  "--schedules", "25"])
    argvs.append(["chaos", "--strategy", "all", "--plans", "25"])
    argvs.append(["chaos", "--blocks", "31", "--plans", "3"])
    mutants = [s for s in strategy_names() if s.startswith("broken-")]
    for strategy in strategy_names():
        if strategy not in mutants and strategy not in CHAOS_ALL + ("null",):
            argvs.append(["chaos", "--strategy", strategy, "--plans", "25"])
    for mutant in mutants:
        argvs.append(["sanitize", "--strategy", mutant, "--schedules", "3"])
    argvs.append(["lint", "src/repro", "examples", "--strict"])
    argvs.append(["lint", "--fix", "--check"])
    argvs.append(["fig11", "--rounds", "20"])
    argvs.append(["table1"])
    argvs.append(["fig11", "--rounds", "0"])
    argvs.append(["crashtest", "--crash-points", "nope"])
    argvs += [
        ["trace", "--blocks", "0"],
        ["extensions", "--rounds", "0"],
        ["diff", "--baseline", "/missing.json", "--current", "/missing.json"],
        ["fig13", "--step", "0", "--algorithms", "fft"],
        ["chaos", "--plans", "-3"],
    ]
    argvs += [
        ["fig99"],
        ["diff"],
        ["table1", "src/repro"],
        ["models", "--fix"],
        ["lint", "--check"],
        ["lint", "--fix", "--diff", "--check"],
        ["fig11", "--plans", "3"],
        ["models", "--cache"],
        ["serve", "--preset", "gtx280"],
        ["table1", "--strategy", "gpu-simple"],
        ["diff", "--jobs", "2", "--baseline", "a", "--current", "b"],
        ["fig11", "--rounds", "2", "--jobs", "0"],
        ["fig11", "--rounds", "2", "--jobs", "-1"],
    ]
    return argvs


INVOCATIONS = {" ".join(argv): argv for argv in _invocations()}


def _record(argv: List[str]) -> Dict[str, Any]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden(request):
    """The pinned entries; with ``--update-golden``, a dict to refill."""
    update = request.config.getoption("--update-golden")
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if not update:
        yield pinned
        return
    fresh: Dict[str, Any] = {}
    yield fresh
    merged = {k: v for k, v in pinned.items() if k in INVOCATIONS}
    merged.update(fresh)
    GOLDEN.write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")


@pytest.mark.parametrize("invocation", sorted(INVOCATIONS))
def test_cli_golden(invocation, golden, request, monkeypatch):
    monkeypatch.chdir(GOLDEN.parents[2])  # lint's default paths are relative
    record = _record(INVOCATIONS[invocation])
    if request.config.getoption("--update-golden"):
        golden[invocation] = record
        return
    assert invocation in golden, f"no golden entry for {invocation!r}; run --update-golden"
    assert record == golden[invocation]


def test_cli_golden_has_no_stale_entries(golden, request):
    if request.config.getoption("--update-golden"):
        pytest.skip("rewriting the goldens")
    assert sorted(golden) == sorted(INVOCATIONS)
