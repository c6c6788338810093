"""Command-line entry point: ``python -m repro.harness <experiment>``.

Experiments (DESIGN.md §4):

* ``table1``   — % of time on inter-block communication (Table 1)
* ``fig11``    — micro-benchmark time vs blocks, all strategies (Fig. 11)
* ``fig13``    — kernel time vs blocks for fft/swat/bitonic (Fig. 13a–c)
* ``fig14``    — synchronization time vs blocks (Fig. 14a–c)
* ``fig15``    — compute/sync percentage breakdown (Fig. 15)
* ``headline`` — the abstract's speedup numbers
* ``models``   — barrier cost: measured vs Eqs. 6/7/9
* ``all``      — everything above (slow)

Extras beyond the paper:

* ``extensions`` — sense-reversal & dissemination barriers vs the
  paper's three, plus the prefix-scan workload
* ``trace``      — run one configuration and write a Chrome-tracing
  JSON of every block's compute/sync spans (``--out``)
* ``sanitize``   — replay a strategy (or ``--strategy all``) under
  fuzzed schedules and report barrier/race findings (docs/sanitizer.md);
  exits 1 when any finding survives
* ``chaos``      — run ``--plans`` seeded fault plans against a strategy
  (or ``--strategy all``) under the resilient runtime (docs/faults.md);
  exits 1 when any run's fate is not explained by its fault plan
* ``cache``      — inspect (``cache stats``, the default) or empty
  (``cache clear``) the content-addressed result cache
* ``lint``       — static barrier-protocol analysis over Python source
  (``lint [paths...]``, default ``src/repro examples``); supports
  ``--format text|json`` and ``--strict`` (docs/staticcheck.md); exits
  1 on error-severity findings (any finding under ``--strict``), 2 on
  unreadable/unparsable input.  ``--fix`` applies every
  machine-applicable repair in place (docs/staticcheck.md's repair
  catalog), re-linting after each patch to prove the findings are
  gone; ``--fix --diff`` prints the pending repairs as a unified diff
  without writing, and ``--fix --check`` writes nothing and exits 1
  when any repair is pending (the CI "fix-clean" gate)
* ``tune``       — cost-model-backed strategy advice (docs/tuning.md):
  predict every strategy's total time for a workload (``--rounds``,
  ``--compute-ns``, ``--blocks``) under ``--preset``'s calibrated,
  topology-resolved timings and emit an ``SC100 suboptimal-strategy``
  advisory when ``--strategy`` diverges from the recommendation;
  ``--measure`` validates the model against a measured sweep through
  the (cacheable) executor; exits 0 unless ``--strict`` and suboptimal
* ``serve``      — run the crash-safe sweep service: an HTTP job queue
  backed by a SQLite job table in WAL mode, with content-addressed
  dedup, lease-based worker recovery, and graceful SIGTERM drain
  (docs/service.md); ``--port``, ``--workers``, ``--lease-s``,
  ``--retry-budget``, ``--max-queued``, ``--service-dir``
* ``crashtest``  — run the crash matrix against the sweep service: fire
  every registered crash point (or ``--crash-points``/
  ``--crash-actions`` subsets) in a live victim worker on one simulated
  host while a second host stands by, then prove recovery — no job
  lost, none double-completed, lease takeover by the survivor, final
  envelope byte-identical to an undisturbed run (docs/crashtest.md);
  ``--budget-s`` bounds the wall clock, ``--skew-s`` sets the injected
  clock skew for the skewed-host configs; exits 1 unless every
  scenario passed

Device flag (docs/topology.md): ``--preset NAME`` runs the whole
battery against a registered device preset (default ``gtx280``, the
paper's card; see ``repro.gpu.presets``).  Block counts the paper pins
at 30 clamp to the preset's co-residency limit, and ``lint`` resolves
its SC002 occupancy limit through the preset's topology.

Execution flags (docs/parallel.md): ``--jobs N`` shards sweeps and
campaigns across N worker processes; ``--cache`` memoizes every run
keyed on its full configuration (``--cache-dir`` relocates the store).
Both are bit-identical to the serial, uncached run.

Resilience flags (docs/resilience.md): ``--journal`` write-ahead-journals
every completed cell under ``benchmarks/out/journal/<run-id>/``
(``--journal-dir`` relocates it); a journaled run interrupted by
Ctrl-C/SIGTERM exits 130 with a resume hint, and ``--resume [RUN_ID]``
replays the journal and executes only the remainder — bit-identical to
an uninterrupted run.  ``--resume`` with no run-id resumes whatever
journal matches each batch.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import InterruptedSweepError
from repro.faults.crashpoints import CRASH_ACTIONS
from repro.gpu.presets import get_preset, preset_names
from repro.harness import experiments, report

__all__ = ["main"]


def _persist_sweep(args: argparse.Namespace, sweep, stem: str) -> None:
    if args.save_sweeps is None:
        return
    from pathlib import Path

    from repro.harness.store import save_sweep

    out = Path(args.save_sweeps)
    out.mkdir(parents=True, exist_ok=True)
    save_sweep(sweep, out / f"{stem}.json")
    (out / f"{stem}.csv").write_text(sweep.to_csv())
    (out / f"{stem}_sync.csv").write_text(sweep.to_csv(sync=True))


def _per_batch_resume(resume: Optional[str], batches: int) -> Optional[str]:
    """An explicit run-id can only match one batch; multi-batch
    experiments resume each batch from its own journal (``"auto"``)."""
    if resume is None or batches == 1:
        return resume
    return "auto"


def _fig13_14(args: argparse.Namespace, sync: bool, executor=None, cfg=None) -> str:
    chunks: List[str] = []
    resume = _per_batch_resume(args.resume, len(args.algorithms))
    for algo in args.algorithms:
        sweep = experiments.algorithm_sweep(
            algo, config=cfg, step=args.step, executor=executor, resume=resume
        )
        fig = "Fig. 14" if sync else "Fig. 13"
        title = f"{fig} ({algo})"
        if sync:
            chunks.append(report.render_sweep_sync(sweep, title))
        else:
            chunks.append(report.render_sweep_totals(sweep, title))
        if args.plot:
            from repro.harness.plot import plot_sweep

            chunks.append(plot_sweep(sweep, sync=sync, title=title))
        _persist_sweep(args, sweep, f"{'fig14' if sync else 'fig13'}_{algo}")
    return "\n\n".join(chunks)


def _extensions_study(args: argparse.Namespace, cfg=None) -> str:
    """Compare all six device barriers on the micro-benchmark."""
    from repro.harness.phases import probe_barrier_cost

    cfg = cfg or get_preset("gtx280")
    limit = cfg.topology.max_co_resident_blocks(cfg)
    rounds, blocks = min(args.rounds, 200), min(30, limit)
    rows = [
        (strat, probe_barrier_cost(strat, blocks, cfg, rounds))
        for strat in (
            "gpu-simple",
            "gpu-sense-reversal",
            "gpu-tree-2",
            "gpu-tree-3",
            "gpu-dissemination",
            "gpu-lockfree",
        )
    ]
    rows.sort(key=lambda r: r[1])
    return report.format_table(
        ["barrier", "per-round cost (µs)"],
        [[name, f"{cost/1e3:.2f}"] for name, cost in rows],
        title=f"Extension barriers — micro, {blocks} blocks",
    )


def _trace_one(args: argparse.Namespace, cfg=None) -> str:
    """Run one configuration and dump a Chrome-tracing JSON."""
    from repro.algorithms import FFT
    from repro.harness.runner import run
    from repro.harness.traceview import write_chrome_trace

    result = run(
        FFT(n=2**10), args.strategy, args.blocks, config=cfg, keep_device=True
    )
    path = write_chrome_trace(result.device.trace, args.out)
    return (
        f"ran fft (n=1024) under {args.strategy} on {args.blocks} blocks: "
        f"{result.total_ms:.3f} ms, verified={result.verified}\n"
        f"wrote {len(result.device.trace)} spans to {path} "
        "(open in chrome://tracing or ui.perfetto.dev)"
    )


#: strategies ``sanitize --strategy all`` sweeps (the paper's device
#: barriers plus the extension barriers).
SANITIZE_ALL = (
    "gpu-simple",
    "gpu-sense-reversal",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-dissemination",
    "gpu-lockfree",
)


def _sanitize(args: argparse.Namespace, executor=None, cfg=None) -> "tuple[str, bool]":
    """Run the sanitizer; returns (rendered report, any findings)."""
    from repro.errors import ConfigError
    from repro.sanitize import DEFAULT_SEED, sanitize_run

    strategies = SANITIZE_ALL if args.strategy == "all" else [args.strategy]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    resume = _per_batch_resume(args.resume, len(strategies))
    chunks: List[str] = []
    dirty = False
    for strat in strategies:
        try:
            rep = sanitize_run(
                strategy=strat,
                num_blocks=args.blocks,
                config=cfg,
                seed=seed,
                schedules=args.schedules,
                executor=executor,
                resume=resume,
            )
        except (ConfigError, ValueError) as exc:
            raise SystemExit(f"sanitize: {exc}")
        chunks.append(rep.render())
        dirty = dirty or not rep.clean
    return "\n\n".join(chunks), dirty


#: strategies ``chaos --strategy all`` sweeps: every device barrier that
#: can degrade to the host-side fallback, plus the fallback itself so
#: the host path's fault handling is exercised directly.
CHAOS_ALL = (
    "gpu-simple",
    "gpu-tree-2",
    "gpu-lockfree",
    "cpu-implicit",
)


def _chaos(args: argparse.Namespace, executor=None, cfg=None) -> "tuple[str, bool]":
    """Run chaos campaigns; returns (rendered reports, any unexplained)."""
    from repro.errors import ConfigError
    from repro.faults import chaos_campaign
    from repro.sanitize import DEFAULT_SEED

    strategies = CHAOS_ALL if args.strategy == "all" else [args.strategy]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    resume = _per_batch_resume(args.resume, len(strategies))
    chunks: List[str] = []
    dirty = False
    for strat in strategies:
        try:
            rep = chaos_campaign(
                strat,
                plans=args.plans,
                seed=seed,
                num_blocks=args.blocks,
                config=cfg,
                executor=executor,
                resume=resume,
            )
        except (ConfigError, ValueError) as exc:
            raise SystemExit(f"chaos: {exc}")
        chunks.append(rep.render())
        dirty = dirty or not rep.clean
    return "\n\n".join(chunks), dirty


def _lint(args: argparse.Namespace) -> "tuple[str, int]":
    """Run the static linter; returns (rendered output, exit code)."""
    from repro.staticcheck import LintError, lint_paths, sm_limit_for_preset

    if args.fix:
        return _lint_fix(args)
    paths = args.action or ["src/repro", "examples"]
    try:
        rep = lint_paths(paths, sm_limit=sm_limit_for_preset(args.preset))
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return "", 2
    text = rep.to_json() if args.format == "json" else rep.render()
    return text, rep.exit_code(strict=args.strict)


def _lint_fix(args: argparse.Namespace) -> "tuple[str, int]":
    """Run the auto-repair engine; returns (rendered output, exit code).

    ``--fix`` rewrites files in place; ``--diff`` and ``--check`` are
    dry runs (print the unified diff / gate on pending repairs).
    """
    from repro.staticcheck import LintError, sm_limit_for_preset
    from repro.staticcheck.repair import fix_paths

    paths = args.action or ["src/repro", "examples"]
    write = not (args.diff or args.check)
    try:
        results = fix_paths(
            paths, sm_limit=sm_limit_for_preset(args.preset), write=write
        )
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return "", 2
    changed = [r for r in results if r.changed]
    applied = sum(len(r.applied) for r in results)
    remaining = sum(len(r.remaining) for r in results)
    if args.format == "json":
        from repro.serialization import dump_result

        text = dump_result(
            "fix-report",
            {
                "files_checked": len(results),
                "files_changed": len(changed),
                "fixes_applied": applied,
                "findings_remaining": remaining,
                "written": write,
                "results": [
                    r.to_dict()
                    for r in results
                    if r.changed or r.remaining
                ],
            },
        )
    elif args.diff:
        text = "".join(r.diff() for r in changed) or (
            "lint --fix: nothing to repair"
        )
    else:
        verb = "fixed" if write else "would fix"
        lines = [
            f"lint --fix: {len(results)} file(s) checked, "
            f"{verb} {applied} finding(s) in {len(changed)} file(s), "
            f"{remaining} finding(s) not auto-fixable"
        ]
        for r in changed:
            lines.append(f"  {r.path}:")
            lines.extend(f"    {a.render()}" for a in r.applied)
        text = "\n".join(lines)
    if args.check and changed:
        return text, 1
    return text, 0


def _epilogue(want: str, started: float, cache=None) -> None:
    """Timing (and, when caching, hit-rate) summary on stderr."""
    if cache is not None:
        looked = cache.hits + cache.misses
        rate = 100.0 * cache.hits / looked if looked else 0.0
        print(
            f"\n[cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"hit-rate {rate:.1f}%]",
            file=sys.stderr,
        )
    print(
        f"\n[{want} completed in {time.time() - started:.1f}s]",
        file=sys.stderr,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run; exits 130 on a resumable interrupt."""
    try:
        return _main(argv)
    except InterruptedSweepError as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        print(f"resume with: --resume {exc.run_id}", file=sys.stderr)
        return 130


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Reproduce the tables and figures of 'Inter-Block GPU "
            "Communication via Fast Barrier Synchronization' (IPDPS 2010) "
            "on the simulated GTX 280."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "fig11",
            "fig13",
            "fig14",
            "fig15",
            "headline",
            "models",
            "extensions",
            "composition",
            "trace",
            "report",
            "diff",
            "sanitize",
            "chaos",
            "cache",
            "lint",
            "tune",
            "serve",
            "crashtest",
            "all",
        ],
    )
    parser.add_argument(
        "action",
        nargs="*",
        default=None,
        help="cache: 'stats' (default) or 'clear'; "
        "lint: files/directories to analyze (default: src/repro examples)",
    )
    parser.add_argument(
        "--preset",
        default="gtx280",
        choices=preset_names(),
        help="device preset to run against (default gtx280, the paper's "
        "card); see repro.gpu.presets",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=200,
        help="micro-benchmark rounds (paper: 10000; default 200)",
    )
    parser.add_argument(
        "--step",
        type=int,
        default=3,
        help="block-count step for algorithm sweeps (paper: 1; default 3)",
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["fft", "swat", "bitonic"],
        choices=["fft", "swat", "bitonic"],
        help="workloads for fig13/fig14",
    )
    parser.add_argument(
        "--strategy",
        default="gpu-lockfree",
        help="strategy for the trace/sanitize/chaos experiments "
        "(sanitize and chaos also accept 'all')",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=8,
        help="grid size for the trace/sanitize/chaos experiments",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sanitize/chaos: base seed (default: the sanitizer's); "
        "failure reports print the derived seed to replay",
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=25,
        help="sanitize: fuzzed schedules per strategy (default 25)",
    )
    parser.add_argument(
        "--plans",
        type=int,
        default=50,
        help="chaos: seeded fault plans per strategy (default 50)",
    )
    parser.add_argument(
        "--out",
        default="trace.json",
        help="output path for the trace experiment",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render fig11/fig13/fig14 as ASCII charts as well as tables",
    )
    parser.add_argument(
        "--report-out",
        default="report.md",
        help="output path for the report experiment",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="diff: path to the blessed sweep JSON",
    )
    parser.add_argument(
        "--current",
        default=None,
        help="diff: path to the sweep JSON to compare against the baseline",
    )
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="diff: relative tolerance before a point counts as drift",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweeps and campaigns (default 1: "
        "serial, in-process); results are identical at any job count",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="memoize runs in the content-addressed result cache "
        "(--no-cache disables; see 'cache stats' / 'cache clear')",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default benchmarks/out/cache)",
    )
    parser.add_argument(
        "--journal",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="write-ahead journal every completed sweep cell so an "
        "interrupted run can be resumed (docs/resilience.md)",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="journal location (default benchmarks/out/journal)",
    )
    parser.add_argument(
        "--resume",
        nargs="?",
        const="auto",
        default=None,
        metavar="RUN_ID",
        help="replay a journaled run and execute only the remainder; "
        "pass the run-id an interrupted run printed, or no value to "
        "resume whatever journal matches each batch (implies --journal)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="lint: output format (json uses the shared schema-2 "
        "envelope, kind 'lint-report')",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="lint: exit 1 on any finding, not just error severity; "
        "tune: exit 1 when the configured strategy is suboptimal",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="lint: apply every machine-applicable repair in place, "
        "re-linting after each patch to prove the findings are gone "
        "(docs/staticcheck.md)",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="lint --fix: print pending repairs as a unified diff "
        "instead of writing files",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="lint --fix: write nothing and exit 1 when any repair is "
        "pending (the CI fix-clean gate)",
    )
    parser.add_argument(
        "--compute-ns",
        type=float,
        default=5_000.0,
        help="tune: per-round computation time of the workload in ns "
        "(default 5000)",
    )
    parser.add_argument(
        "--measure",
        action="store_true",
        help="tune: validate the model with a measured sweep — run the "
        "workload's microbenchmark under every modeled strategy plus a "
        "compute-only baseline through the executor",
    )
    service = parser.add_argument_group(
        "serve", "the crash-safe sweep service (docs/service.md)"
    )
    service.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    service.add_argument(
        "--port",
        type=int,
        default=8642,
        help="serve: bind port (default 8642; 0 picks a free port)",
    )
    service.add_argument(
        "--service-dir",
        default=None,
        help="serve: job table + journals + results root "
        "(default benchmarks/out/service)",
    )
    service.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serve: worker processes pulling jobs (default 1; 0 = "
        "workers run elsewhere against the same --service-dir)",
    )
    service.add_argument(
        "--lease-s",
        type=float,
        default=30.0,
        help="serve: worker lease duration in seconds (default 30); a "
        "lease that expires is requeued by the reaper",
    )
    service.add_argument(
        "--retry-budget",
        type=int,
        default=2,
        help="serve: lease-expiry re-executions before a job is marked "
        "failed (default 2)",
    )
    service.add_argument(
        "--max-queued",
        type=int,
        default=256,
        help="serve: bounded-queue capacity; a full queue answers 429 "
        "(default 256)",
    )
    chaos_grp = parser.add_argument_group(
        "crashtest", "the service crash matrix (docs/crashtest.md)"
    )
    chaos_grp.add_argument(
        "--budget-s",
        type=float,
        default=900.0,
        help="crashtest: wall-clock budget in seconds; scenarios past "
        "it are reported as skipped and fail the matrix (default 900)",
    )
    chaos_grp.add_argument(
        "--crash-lease-s",
        type=float,
        default=1.0,
        help="crashtest: worker lease duration (default 1.0 — short, "
        "so lease-expiry recovery is exercised quickly)",
    )
    chaos_grp.add_argument(
        "--skew-s",
        type=float,
        default=0.6,
        help="crashtest: injected clock skew for the skewed-host "
        "configs (default 0.6 — more than a third of the lease)",
    )
    chaos_grp.add_argument(
        "--crash-points",
        nargs="+",
        default=None,
        metavar="POINT",
        help="crashtest: restrict the matrix to these registered crash "
        "points (default: all of them)",
    )
    chaos_grp.add_argument(
        "--crash-actions",
        nargs="+",
        default=None,
        choices=sorted(CRASH_ACTIONS),
        metavar="ACTION",
        help="crashtest: restrict the matrix to these actions "
        f"({', '.join(sorted(CRASH_ACTIONS))})",
    )
    parser.add_argument(
        "--save-sweeps",
        metavar="DIR",
        default=None,
        help=(
            "persist fig11/fig13/fig14 sweeps as JSON + CSV under DIR "
            "(reload with repro.harness.store.load_sweep; diff with "
            "repro.harness.regression.compare_sweeps)"
        ),
    )
    args = parser.parse_args(argv)
    if (args.diff or args.check) and not args.fix:
        parser.error("--diff and --check require --fix")
    if args.diff and args.check:
        parser.error("--diff and --check are mutually exclusive")
    if args.fix and args.experiment != "lint":
        parser.error("--fix only applies to the lint experiment")
    if args.action and args.experiment == "cache":
        if len(args.action) > 1 or args.action[0] not in ("stats", "clear"):
            parser.error(
                "cache takes at most one action: 'stats' or 'clear'"
            )
    elif args.action and args.experiment != "lint":
        parser.error(
            f"positional arguments {args.action!r} only apply to the "
            "cache and lint experiments"
        )

    started = time.time()
    sections: List[str] = []
    want = args.experiment

    # One config object per invocation; every experiment below sees the
    # same preset.  Block counts that the paper pins at 30 (its GTX 280's
    # SM count) are clamped to the preset's co-residency limit so smaller
    # devices stay runnable — for gtx280 the clamp is the identity, which
    # keeps output and cache keys byte-identical to the pre-preset CLI.
    preset_cfg = get_preset(args.preset)
    limit = preset_cfg.topology.max_co_resident_blocks(preset_cfg)
    pinned_blocks = min(30, limit)

    if want == "serve":
        from pathlib import Path

        from repro.service.app import serve

        service_dir = Path(args.service_dir or "benchmarks/out/service")
        return serve(
            service_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            lease_s=args.lease_s,
            retry_budget=args.retry_budget,
            max_queued=args.max_queued,
            worker_jobs=args.jobs,
            use_cache=args.cache,
        )

    if want == "crashtest":
        from repro.faults.crashtest import crash_campaign

        crash_report = crash_campaign(
            points=args.crash_points,
            actions=args.crash_actions,
            budget_s=args.budget_s,
            lease_s=args.crash_lease_s,
            skew_s=args.skew_s,
            log=lambda msg: print(msg, file=sys.stderr),
        )
        print(crash_report.render())
        return 0 if crash_report.ok else 1

    if want == "all" and args.resume is not None:
        # 'all' runs many batches; each resumes from its own journal.
        args.resume = "auto"

    from repro.parallel import (
        DEFAULT_CACHE_DIR,
        DEFAULT_JOURNAL_DIR,
        Executor,
        ResultCache,
    )

    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    cache = ResultCache(cache_dir) if args.cache else None
    journaling = args.journal or args.resume is not None
    journal_dir = (args.journal_dir or DEFAULT_JOURNAL_DIR) if journaling else None
    executor: Optional[Executor] = None
    if args.jobs > 1 or cache is not None or journaling:
        executor = Executor(
            jobs=args.jobs, cache=cache, journal_dir=journal_dir
        )

    if want == "cache":
        store = ResultCache(cache_dir)
        if args.action and args.action[0] == "clear":
            removed = store.clear()
            sections.append(
                f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
                f"from {store.root}"
            )
        else:
            sections.append(store.stats().render())

    if want in ("table1", "all"):
        sections.append(
            report.render_table1(
                experiments.table1(
                    config=preset_cfg,
                    num_blocks=pinned_blocks,
                    executor=executor,
                    resume=args.resume,
                )
            )
        )
    if want in ("fig11", "all"):
        sweep = experiments.fig11(
            config=preset_cfg,
            rounds=args.rounds,
            executor=executor,
            resume=args.resume,
        )
        sections.append(
            report.render_sweep_totals(
                sweep, f"Fig. 11 (micro-benchmark, {args.rounds} rounds)"
            )
        )
        _persist_sweep(args, sweep, "fig11")
        if args.plot:
            from repro.harness.plot import plot_sweep

            sections.append(
                plot_sweep(sweep, sync=True, title="Fig. 11 sync time")
            )
    if want in ("fig13", "all"):
        sections.append(
            _fig13_14(args, sync=False, executor=executor, cfg=preset_cfg)
        )
    if want in ("fig14", "all"):
        sections.append(
            _fig13_14(args, sync=True, executor=executor, cfg=preset_cfg)
        )
    if want in ("fig15", "all"):
        sections.append(
            report.render_fig15(
                experiments.fig15(
                    config=preset_cfg,
                    num_blocks=pinned_blocks,
                    executor=executor,
                    resume=args.resume,
                )
            )
        )
    if want in ("headline", "all"):
        sections.append(
            report.render_headline(
                experiments.headline(
                    config=preset_cfg,
                    num_blocks=pinned_blocks,
                    executor=executor,
                    resume=args.resume,
                )
            )
        )
    if want in ("models", "all"):
        model_xs = [n for n in (1, 2, 4, 8, 16, 24, 30) if n <= limit]
        sections.append(
            report.render_model_validation(
                experiments.model_validation(
                    config=preset_cfg, blocks=model_xs
                )
            )
        )
    if want in ("extensions", "all"):
        sections.append(_extensions_study(args, cfg=preset_cfg))
    if want in ("composition", "all"):
        from repro.harness.tracestats import composition_study, render_composition

        sections.append(
            render_composition(
                composition_study(
                    num_blocks=pinned_blocks, config=preset_cfg
                )
            )
        )
    if want == "trace":
        sections.append(_trace_one(args, cfg=preset_cfg))
    if want == "report":
        from repro.harness.paperreport import generate_report

        path = generate_report(
            args.report_out, config=preset_cfg, micro_rounds=args.rounds
        )
        sections.append(f"wrote reproduction report to {path}")
    if want == "diff":
        if not args.baseline or not args.current:
            parser.error("diff requires --baseline and --current")
        from repro.harness.regression import compare_sweeps
        from repro.harness.store import load_sweep

        drifts = compare_sweeps(
            load_sweep(args.baseline), load_sweep(args.current), args.rel_tol
        )
        if drifts:
            sections.append(
                f"{len(drifts)} drifted point(s):\n"
                + "\n".join(f"  {d}" for d in drifts)
            )
            print("\n\n".join(sections))
            _epilogue(want, started, cache)
            return 1
        sections.append("no drift: sweeps are identical within tolerance")
    if want == "sanitize":
        text, dirty = _sanitize(args, executor=executor, cfg=preset_cfg)
        sections.append(text)
        if dirty:
            print("\n\n".join(sections))
            _epilogue(want, started, cache)
            return 1
    if want == "chaos":
        text, dirty = _chaos(args, executor=executor, cfg=preset_cfg)
        sections.append(text)
        if dirty:
            print("\n\n".join(sections))
            _epilogue(want, started, cache)
            return 1
    if want == "lint":
        text, code = _lint(args)
        if text:
            sections.append(text)
        if code:
            if sections:
                print("\n\n".join(sections))
            _epilogue(want, started, cache)
            return code
    if want == "tune":
        from repro.errors import ConfigError
        from repro.model.tune import tune_workload

        try:
            tune_rep = tune_workload(
                args.rounds,
                args.compute_ns,
                args.blocks,
                args.strategy,
                args.preset,
                measure=args.measure,
                executor=executor,
            )
        except ConfigError as exc:
            raise SystemExit(f"tune: {exc}")
        sections.append(
            tune_rep.to_json() if args.format == "json" else tune_rep.render()
        )
        code = tune_rep.exit_code(strict=args.strict)
        if code:
            print("\n\n".join(sections))
            _epilogue(want, started, cache)
            return code

    print("\n\n".join(sections))
    _epilogue(want, started, cache)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
