"""Benchmark entry point: time one workload, or profile it by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig11_micro --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` makes the separate traced run and
prints the per-layer metrics (``perfbench/layers.py`` maps each to the
end-to-end metric it should move).  ``--workload all`` runs every
workload in turn.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed or a counter drifted, and 2 when
the repository's sources are missing.

The benchmark drives the repository only through its public entry
points, from ``src/`` of the checkout it sits in, and writes only under
``.perfbench_work/`` there, which it removes again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("fig11_micro", "kernels_30", "service_roundtrip")
#: fresh interpreters a sim workload's setup_s is the median of.
SETUP_PROBES = 5


def _pin_environment() -> None:
    """Make the caller's environment unable to change what is measured.

    Every phase also pins its engine with ``use_engine_mode``; the
    environment covers the service's worker subprocess and the setup
    probes, which must not inherit armed crash points either.
    """
    os.environ.pop("REPRO_CRASHPOINTS", None)
    os.environ["REPRO_ENGINE_MODE"] = "reference"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )
    sys.path.insert(0, str(SRC))


def _provenance(args: argparse.Namespace) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "host": {
            "python": platform.python_version(),
            "nproc": nproc,
            "platform": platform.platform(),
        },
    }


def _setup_s(workload: str, seed: int) -> float:
    """Median scaled time of fresh interpreters that import the
    repository, resolve the preset and build the workload's inputs."""
    from clock import ScaledTimer

    timer = ScaledTimer()
    samples: List[float] = []
    for _ in range(SETUP_PROBES):
        timer.start()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, timeout=120, check=True,
        )
        samples.append(timer.stop())
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    from outcome import Outcome

    outcome = Outcome()
    if name == "service_roundtrip":
        import servicework

        (servicework.traced if trace else servicework.timed)(seed, seconds, outcome, work)
    else:
        import simwork

        if trace:
            simwork.traced(name, seed, seconds, outcome)
        else:
            outcome.set_end_to_end(setup_s=_setup_s(name, seed))
            simwork.timed(name, seed, seconds, outcome)
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    if args.setup_probe:
        import simwork

        simwork.prepare(args.workload, args.seed)
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcomes = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), work / name)
            for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    for name, outcome in outcomes.items():
        print(f"== {name}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in outcome.metrics.items():
            print(f"  {metric} = {value:.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        for note in outcome.notes:
            print(f"  note: {note}")
        for problem in outcome.problems:
            print(f"  FAILED CHECK: {problem}")
    print(json.dumps({"provenance": _provenance(args)}))
    correct = all(o.correct for o in outcomes.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
