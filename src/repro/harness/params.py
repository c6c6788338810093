"""The parameter table shared by the CLI and the sweep service.

Every flag a verb of :mod:`repro.harness.cli` reads is a :class:`Param`
declared here or in that verb's row of the verb table; :data:`GROUPS`
names the flag groups several verbs share.  The sweep service's job-spec
parameters (:mod:`repro.service.runners`) are these same declarations,
so a spec param has the type and default of the CLI flag of that name.
This module imports nothing heavy, so the service can read it cheaply.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional, Tuple

from repro.gpu.presets import preset_names
from repro.parallel import DEFAULT_CACHE_DIR, DEFAULT_JOURNAL_DIR
from repro.sanitize import DEFAULT_SEED

__all__ = [
    "ALGORITHM", "ALGORITHMS", "BLOCKS", "CACHE", "CACHE_DIR", "FORMAT", "GROUPS",
    "JOBS", "JOURNAL", "JOURNAL_DIR", "PLANS", "PLOT", "PRESET", "Param", "RESUME",
    "ROUNDS", "SAVE_SWEEPS", "SCHEDULES", "SEED", "STEP", "STRATEGY", "STRICT",
]


class Param:
    """One flag, declared once: its name, type, default and help.

    ``type`` is both argparse's converter and the sweep service's spec
    type check; ``options`` go to ``add_argument`` as they are (a
    callable ``choices`` is called when the parser is built).
    ``minimum`` is the smallest value the library accepts; the sweep
    service refuses a spec below it, while the CLI leaves the refusal
    to the library's typed error.
    """

    def __init__(
        self,
        flag: str,
        default: Any,
        help: str,
        type: Any = None,
        *,
        minimum: Optional[int] = None,
        **options: Any,
    ):
        self.flag, self.default, self.help = flag, default, help
        self.type, self.options, self.minimum = type, options, minimum
        #: the namespace attribute and the service parameter name.
        self.name = flag.lstrip("-").replace("-", "_")

    def add_to(self, parser: Any) -> None:
        kwargs = dict(self.options, default=self.default, help=self.help)
        if callable(kwargs.get("choices")):
            kwargs["choices"] = kwargs["choices"]()
        if self.type is not None:
            kwargs["type"] = self.type
        parser.add_argument(self.flag, **kwargs)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


PRESET = Param(
    "--preset", "gtx280",
    "device preset (default gtx280, the paper's card; see "
    "repro.gpu.presets); block counts the paper pins at 30 clamp to its "
    "co-residency limit",
    choices=preset_names,
)
JOBS = Param(
    "--jobs", 1,
    "worker processes (default 1: serial, in-process); results are "
    "identical at any job count",
    _at_least_one,
)
CACHE = Param(
    "--cache", False,
    "memoize runs in the content-addressed result cache (--no-cache "
    "disables; see 'cache stats' / 'cache clear')",
    action=argparse.BooleanOptionalAction,
)
CACHE_DIR = Param(
    "--cache-dir", DEFAULT_CACHE_DIR, "cache location (default %(default)s)"
)
JOURNAL = Param(
    "--journal", False,
    "write-ahead journal every completed cell so an interrupted run "
    "(exit 130) can be resumed (docs/resilience.md)",
    action=argparse.BooleanOptionalAction,
)
JOURNAL_DIR = Param(
    "--journal-dir", DEFAULT_JOURNAL_DIR, "journal location (default %(default)s)"
)
RESUME = Param(
    "--resume", None,
    "replay a journaled run and execute only the remainder; pass the "
    "run-id an interrupted run printed, or no value to resume whatever "
    "journal matches each batch (implies --journal)",
    nargs="?", const="auto", metavar="RUN_ID",
)
ROUNDS = Param(
    "--rounds", 200, "micro-benchmark rounds (paper: 10000; default 200)", int,
    minimum=1,
)
STEP = Param(
    "--step", 3, "block-count step for algorithm sweeps (paper: 1; default 3)", int,
    minimum=1,
)
_WORKLOADS = ("fft", "swat", "bitonic")
ALGORITHMS = Param(
    "--algorithms", list(_WORKLOADS), "workloads for fig13/fig14",
    nargs="+", choices=_WORKLOADS,
)
#: the service's one-workload sweep (``algorithm-sweep``); not a CLI flag.
ALGORITHM = Param("--algorithm", _WORKLOADS[0], "the workload to sweep", str)
PLOT = Param(
    "--plot", False, "render sweeps as ASCII charts as well as tables",
    action="store_true",
)
SAVE_SWEEPS = Param(
    "--save-sweeps", None,
    "persist sweeps as JSON + CSV under DIR (reload with "
    "repro.harness.store.load_sweep; diff with the diff verb)",
    metavar="DIR",
)
STRATEGY = Param(
    "--strategy", "gpu-lockfree",
    "barrier strategy (sanitize and chaos also accept 'all')", str,
)
BLOCKS = Param("--blocks", 8, "grid size (default 8)", int, minimum=1)
SEED = Param(
    "--seed", DEFAULT_SEED,
    "base seed (default %(default)s); failure reports print the derived "
    "seed to replay",
    int,
)
SCHEDULES = Param(
    "--schedules", 25, "fuzzed schedules per strategy (default 25)", int, minimum=0
)
PLANS = Param(
    "--plans", 50, "seeded fault plans per strategy (default 50)", int, minimum=0
)
FORMAT = Param(
    "--format", "text",
    "output format (json: the shared result envelope)",
    choices=["text", "json"],
)
STRICT = Param(
    "--strict", False,
    "lint: exit 1 on any finding, not just error severity; tune: exit 1 "
    "when the configured strategy is suboptimal",
    action="store_true",
)

#: flag group -> (description, flags); each verb lists the groups it reads.
GROUPS: Dict[str, Tuple[str, Tuple[Param, ...]]] = {
    "device": ("the simulated device (docs/topology.md)", (PRESET,)),
    "exec": (
        "the executor: worker processes, result cache and write-ahead "
        "journal (docs/parallel.md, docs/resilience.md)",
        (JOBS, CACHE, CACHE_DIR, JOURNAL, JOURNAL_DIR, RESUME),
    ),
    "sweep": ("block sweeps", (ROUNDS, STEP, ALGORITHMS, PLOT, SAVE_SWEEPS)),
    "campaign": ("strategy campaigns", (STRATEGY, BLOCKS, SEED)),
}
