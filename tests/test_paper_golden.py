"""Paper-size golden: every output of ``all`` at the paper's settings.

``tests/golden/paper.json`` pins what
``repro all --step 1 --rounds 10000 --no-cache --save-sweeps DIR``
produces: the SHA-256 of each file it writes under ``DIR`` (the sweep
JSONs carry nanoseconds, so they catch what the printed tables round
away) and its stdout, line by line, minus any wall-clock line.  It is
the one golden that pins the fast-forwarded 10,000-round host-mode
cells.

The run takes about five minutes on two vCPUs, so the test is opt-in:

    PYTHONPATH=src python -m pytest tests/test_paper_golden.py --paper-golden

and ``--update-golden`` together with ``--paper-golden`` rewrites the
file; a change that moves an entry must say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "paper.json"
SRC = Path(__file__).resolve().parents[1] / "src"

ARGV = ["all", "--step", "1", "--rounds", "10000", "--no-cache"]

#: a line that reports elapsed host time; none reach stdout today.
WALL_CLOCK = re.compile(r"completed in [0-9.]+s")


def record(out_dir: Path) -> dict:
    """Run ``all`` at the paper's settings; its files' digests and stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness", *ARGV,
         "--save-sweeps", str(out_dir)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return {
        "argv": ARGV + ["--save-sweeps", "DIR"],
        "files": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())
        },
        "stdout": [
            line for line in proc.stdout.splitlines()
            if not WALL_CLOCK.search(line)
        ],
    }


def test_paper_settings_reproduce_the_golden(request, tmp_path):
    if not request.config.getoption("--paper-golden"):
        pytest.skip("about five minutes; opt in with --paper-golden")
    fresh = record(tmp_path)
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        return
    pinned = json.loads(GOLDEN.read_text())
    assert fresh["argv"] == pinned["argv"]
    assert fresh["files"] == pinned["files"]
    assert fresh["stdout"] == pinned["stdout"]
