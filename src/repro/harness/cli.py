"""Command-line entry point: ``python -m repro.harness <verb>``.

:data:`VERBS` is the one table of experiments.  Each :class:`Verb` names
the flag groups (:data:`~repro.harness.params.GROUPS`) and flags it
reads and the handler that runs it; the argparse subcommands are built
from the table, so a verb accepts exactly the flags it reads.
``repro-harness --help`` lists the verbs and ``repro-harness <verb>
--help`` their flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import InterruptedSweepError, ReproError
from repro.faults.crashpoints import CRASH_ACTIONS
from repro.gpu.presets import get_preset
from repro.harness import experiments, report
from repro.harness.params import (
    BLOCKS,
    CACHE,
    CACHE_DIR,
    FORMAT,
    GROUPS,
    JOBS,
    PLANS,
    ROUNDS,
    SCHEDULES,
    STRATEGY,
    STRICT,
    Param,
)

__all__ = ["VERBS", "Verb", "main"]


Handler = Callable[[argparse.Namespace], Tuple[str, int]]


@dataclass(frozen=True)
class Verb:
    """One experiment: its flags and the handler returning (text, exit code)."""

    name: str
    help: str
    handler: Handler
    groups: Tuple[str, ...] = ()
    flags: Tuple[Param, ...] = ()
    #: ``all`` runs every paper verb, in table order.
    paper: bool = False
    #: print the timing (and cache hit-rate) epilogue on stderr.
    timed: bool = True


# -- handlers -----------------------------------------------------------------


def _pinned_blocks(cfg) -> int:
    """The paper's 30 blocks, clamped to the preset's co-residency limit
    (the identity on gtx280, which keeps output and cache keys stable)."""
    return min(30, cfg.topology.max_co_resident_blocks(cfg))


def _per_batch_resume(resume: Optional[str], batches: int) -> Optional[str]:
    """An explicit run-id can only match one batch; multi-batch
    experiments resume each batch from its own journal (``"auto"``)."""
    if resume is None or batches == 1:
        return resume
    return "auto"


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


def _pinned(study: Callable, render: Callable[[Any], str]) -> Handler:
    """A paper study at the pinned grid size, through the executor."""

    def handler(args: argparse.Namespace) -> Tuple[str, int]:
        result = study(
            config=args.cfg,
            num_blocks=_pinned_blocks(args.cfg),
            executor=args.executor,
            resume=args.resume,
        )
        return render(result), 0

    return handler


def _fig11(args: argparse.Namespace) -> Tuple[str, int]:
    sweep = experiments.fig11(
        config=args.cfg, rounds=args.rounds, executor=args.executor,
        resume=args.resume,
    )
    chunks = [
        report.render_sweep_totals(
            sweep, f"Fig. 11 (micro-benchmark, {args.rounds} rounds)"
        )
    ]
    _persist_sweep(args, sweep, "fig11")
    if args.plot:
        from repro.harness.plot import plot_sweep

        chunks.append(plot_sweep(sweep, sync=True, title="Fig. 11 sync time"))
    return "\n\n".join(chunks), 0


def _fig13_14(args: argparse.Namespace, sync: bool) -> Tuple[str, int]:
    chunks: List[str] = []
    resume = _per_batch_resume(args.resume, len(args.algorithms))
    fig = 14 if sync else 13
    for algo in args.algorithms:
        sweep = experiments.algorithm_sweep(
            algo, config=args.cfg, step=args.step, executor=args.executor,
            resume=resume,
        )
        title = f"Fig. {fig} ({algo})"
        render = report.render_sweep_sync if sync else report.render_sweep_totals
        chunks.append(render(sweep, title))
        if args.plot:
            from repro.harness.plot import plot_sweep

            chunks.append(plot_sweep(sweep, sync=sync, title=title))
        _persist_sweep(args, sweep, f"fig{fig}_{algo}")
    return "\n\n".join(chunks), 0


def _models(args: argparse.Namespace) -> Tuple[str, int]:
    blocks = [n for n in (1, 2, 4, 8, 16, 24, 30) if n <= _pinned_blocks(args.cfg)]
    study = experiments.model_validation(config=args.cfg, blocks=blocks)
    return report.render_model_validation(study), 0


#: the paper's device barriers plus the extension barriers: what
#: ``extensions`` compares and ``sanitize --strategy all`` sweeps.
DEVICE_BARRIERS = (
    "gpu-simple",
    "gpu-sense-reversal",
    "gpu-tree-2",
    "gpu-tree-3",
    "gpu-dissemination",
    "gpu-lockfree",
)


def _extensions(args: argparse.Namespace) -> Tuple[str, int]:
    """Compare all six device barriers on the micro-benchmark."""
    from repro.harness.phases import probe_barrier_cost

    rounds, blocks = min(args.rounds, 200), _pinned_blocks(args.cfg)
    rows = [
        (strat, probe_barrier_cost(strat, blocks, args.cfg, rounds))
        for strat in DEVICE_BARRIERS
    ]
    rows.sort(key=lambda r: r[1])
    return report.format_table(
        ["barrier", "per-round cost (µs)"],
        [[name, f"{cost/1e3:.2f}"] for name, cost in rows],
        title=f"Extension barriers — micro, {blocks} blocks",
    ), 0


def _composition(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.harness.tracestats import composition_study, render_composition

    study = composition_study(num_blocks=_pinned_blocks(args.cfg), config=args.cfg)
    return render_composition(study), 0


def _trace(args: argparse.Namespace) -> Tuple[str, int]:
    """Run one configuration and dump a Chrome-tracing JSON."""
    from repro.algorithms import FFT
    from repro.harness.runner import run
    from repro.harness.traceview import write_chrome_trace

    result = run(
        FFT(n=2**10), args.strategy, args.blocks, config=args.cfg,
        keep_device=True,
    )
    path = write_chrome_trace(result.device.trace, args.out)
    return (
        f"ran fft (n=1024) under {args.strategy} on {args.blocks} blocks: "
        f"{result.total_ms:.3f} ms, verified={result.verified}\n"
        f"wrote {len(result.device.trace)} spans to {path} "
        "(open in chrome://tracing or ui.perfetto.dev)"
    ), 0


def _report(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.harness.paperreport import generate_report

    path = generate_report(args.report_out, config=args.cfg, micro_rounds=args.rounds)
    return f"wrote reproduction report to {path}", 0


def _diff(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.harness.regression import compare_sweeps
    from repro.harness.store import load_sweep

    drifts = compare_sweeps(
        load_sweep(args.baseline), load_sweep(args.current), args.rel_tol
    )
    if drifts:
        lines = "\n".join(f"  {d}" for d in drifts)
        return f"{len(drifts)} drifted point(s):\n{lines}", 1
    return "no drift: sweeps are identical within tolerance", 0


def _campaign(run_one: Callable, everything: Sequence[str]) -> Handler:
    """sanitize/chaos: one strategy or ``--strategy all``; exits 1 when
    any report is not clean."""

    def handler(args: argparse.Namespace) -> Tuple[str, int]:
        strategies = everything if args.strategy == "all" else [args.strategy]
        resume = _per_batch_resume(args.resume, len(strategies))
        reports = [run_one(args, strat, resume) for strat in strategies]
        text = "\n\n".join(rep.render() for rep in reports)
        return text, int(not all(rep.clean for rep in reports))

    return handler


def _sanitize_one(args: argparse.Namespace, strategy: str, resume):
    from repro.sanitize import sanitize_run

    return sanitize_run(
        strategy=strategy,
        num_blocks=args.blocks,
        config=args.cfg,
        seed=args.seed,
        schedules=args.schedules,
        executor=args.executor,
        resume=resume,
    )


def _chaos_one(args: argparse.Namespace, strategy: str, resume):
    from repro.faults import chaos_campaign

    return chaos_campaign(
        strategy,
        plans=args.plans,
        seed=args.seed,
        num_blocks=args.blocks,
        config=args.cfg,
        executor=args.executor,
        resume=resume,
    )


#: strategies ``chaos --strategy all`` sweeps: every device barrier that
#: can degrade to the host-side fallback, plus the fallback itself so
#: the host path's fault handling is exercised directly.
CHAOS_ALL = (
    "gpu-simple",
    "gpu-tree-2",
    "gpu-lockfree",
    "cpu-implicit",
)


def _cache(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.parallel import ResultCache

    store = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        return (
            f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
            f"from {store.root}"
        ), 0
    return store.stats().render(), 0


def _lint(args: argparse.Namespace) -> Tuple[str, int]:
    """Lint, or with ``--fix`` repair; unreadable input exits 2."""
    from repro.staticcheck import LintError, lint_paths, sm_limit_for_preset

    if (args.diff or args.check) and not args.fix:
        args.usage_error("--diff and --check require --fix")
    if args.diff and args.check:
        args.usage_error("--diff and --check are mutually exclusive")
    sm_limit = sm_limit_for_preset(args.preset)
    try:
        if args.fix:
            return _lint_fix(args, sm_limit)
        rep = lint_paths(args.paths, sm_limit=sm_limit)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return "", 2
    text = rep.to_json() if args.format == "json" else rep.render()
    return text, rep.exit_code(strict=args.strict)


def _lint_fix(args: argparse.Namespace, sm_limit: int) -> Tuple[str, int]:
    """``--fix`` rewrites files in place; ``--diff`` and ``--check`` are
    dry runs (print the unified diff / gate on pending repairs)."""
    from repro.staticcheck.repair import fix_paths

    write = not (args.diff or args.check)
    results = fix_paths(args.paths, sm_limit=sm_limit, write=write)
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
    return text, int(bool(args.check and changed))


def _tune(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.model.tune import tune_workload

    rep = tune_workload(
        args.rounds,
        args.compute_ns,
        args.blocks,
        args.strategy,
        args.preset,
        measure=args.measure,
        executor=args.executor,
    )
    text = rep.to_json() if args.format == "json" else rep.render()
    return text, rep.exit_code(strict=args.strict)


def _serve(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.service.app import serve

    return "", serve(
        args.service_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_s=args.lease_s,
        retry_budget=args.retry_budget,
        max_queued=args.max_queued,
        worker_jobs=args.jobs,
        use_cache=args.cache,
    )


def _crashtest(args: argparse.Namespace) -> Tuple[str, int]:
    from repro.faults.crashtest import crash_campaign

    rep = crash_campaign(
        points=args.crash_points,
        actions=args.crash_actions,
        budget_s=args.budget_s,
        lease_s=args.crash_lease_s,
        skew_s=args.skew_s,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    return rep.render(), int(not rep.ok)


def _all(args: argparse.Namespace) -> Tuple[str, int]:
    if args.resume is not None:
        args.resume = "auto"  # many batches; each resumes its own journal
    return "\n\n".join(v.handler(args)[0] for v in VERBS if v.paper), 0


# -- the verb table -----------------------------------------------------------

_PAPER = ("device", "exec")
_SWEEP = ("device", "exec", "sweep")

VERBS: Tuple[Verb, ...] = (
    Verb("table1", "Table 1: share of time spent on inter-block communication",
         _pinned(experiments.table1, report.render_table1), _PAPER, paper=True),
    Verb("fig11", "Fig. 11: micro-benchmark time vs blocks, every strategy",
         _fig11, _SWEEP, paper=True),
    Verb("fig13", "Fig. 13a-c: kernel time vs blocks for fft/swat/bitonic",
         partial(_fig13_14, sync=False), _SWEEP, paper=True),
    Verb("fig14", "Fig. 14a-c: synchronization time vs blocks",
         partial(_fig13_14, sync=True), _SWEEP, paper=True),
    Verb("fig15", "Fig. 15: compute/sync percentage breakdown",
         _pinned(experiments.fig15, report.render_fig15), _PAPER, paper=True),
    Verb("headline", "the abstract's speedup numbers",
         _pinned(experiments.headline, report.render_headline), _PAPER,
         paper=True),
    Verb("models", "barrier cost: measured vs Eqs. 6/7/9", _models,
         ("device",), paper=True),
    Verb("extensions",
         "sense-reversal and dissemination barriers vs the paper's three",
         _extensions, ("device",), (ROUNDS,), paper=True),
    Verb("composition", "Figs. 7/10: barrier time composition from spans",
         _composition, ("device",), paper=True),
    Verb("trace", "run FFT once and write a Chrome-tracing JSON of its spans",
         _trace, ("device",), (
             STRATEGY, BLOCKS,
             Param("--out", "trace.json", "output path (default %(default)s)"),
         )),
    Verb("report", "write the Markdown reproduction report with PASS/FAIL claims",
         _report, ("device",), (
             ROUNDS,
             Param("--report-out", "report.md", "output path (default %(default)s)"),
         )),
    Verb("diff", "compare two saved sweeps; exits 1 on drift", _diff, (), (
        Param("--baseline", None, "the blessed sweep JSON", required=True),
        Param("--current", None, "the sweep JSON to compare", required=True),
        Param("--rel-tol", 0.0, "relative tolerance before a point counts "
              "as drift", float),
    )),
    Verb("sanitize",
         "replay strategies under fuzzed schedules and report barrier/race "
         "findings (docs/sanitizer.md); exits 1 on any finding",
         _campaign(_sanitize_one, DEVICE_BARRIERS), ("device", "exec", "campaign"),
         (SCHEDULES,)),
    Verb("chaos",
         "run seeded fault plans under the resilient runtime "
         "(docs/faults.md); exits 1 on any unexplained run",
         _campaign(_chaos_one, CHAOS_ALL), ("device", "exec", "campaign"),
         (PLANS,)),
    Verb("cache", "inspect or empty the content-addressed result cache",
         _cache, (), (
             Param("action", "stats", "'stats' (default) or 'clear'",
                   nargs="?", choices=["stats", "clear"]),
             CACHE_DIR,
         )),
    Verb("lint",
         "static barrier-protocol analysis (docs/staticcheck.md); exits 1 "
         "on error findings, 2 on unreadable input",
         _lint, ("device",), (
             Param("paths", ["src/repro", "examples"],
                   "files/directories to analyze (default: src/repro examples)",
                   nargs="*"),
             FORMAT, STRICT,
             Param("--fix", False, "apply every machine-applicable repair in "
                   "place, re-linting after each patch", action="store_true"),
             Param("--diff", False, "with --fix: print pending repairs as a "
                   "unified diff instead of writing", action="store_true"),
             Param("--check", False, "with --fix: write nothing and exit 1 "
                   "when any repair is pending", action="store_true"),
         )),
    Verb("tune",
         "cost-model strategy advice with an SC100 advisory "
         "(docs/tuning.md); exits 1 under --strict when suboptimal",
         _tune, ("device", "exec"), (
             ROUNDS, BLOCKS, STRATEGY, FORMAT, STRICT,
             Param("--compute-ns", 5_000.0, "per-round computation time in "
                   "ns (default 5000)", float),
             Param("--measure", False, "validate the model with a measured "
                   "sweep through the executor", action="store_true"),
         )),
    Verb("serve", "run the crash-safe sweep service (docs/service.md)",
         _serve, (), (
             Param("--host", "127.0.0.1", "bind address (default %(default)s)"),
             Param("--port", 8642, "bind port (default 8642; 0 picks a free "
                   "port)", int),
             Param("--service-dir", "benchmarks/out/service",
                   "job table + journals + results root (default %(default)s)"),
             Param("--workers", 1, "worker processes pulling jobs (default 1; "
                   "0 = workers run elsewhere on the same --service-dir)", int),
             Param("--lease-s", 30.0, "worker lease in seconds (default 30); "
                   "an expired lease is requeued by the reaper", float),
             Param("--retry-budget", 2, "lease-expiry re-executions before a "
                   "job is marked failed (default 2)", int),
             Param("--max-queued", 256, "bounded-queue capacity; a full queue "
                   "answers 429 (default 256)", int),
             JOBS, CACHE,
         ), timed=False),
    Verb("crashtest",
         "fire every registered crash point in a live two-host fleet and "
         "prove recovery (docs/crashtest.md); exits 1 unless all pass",
         _crashtest, (), (
             Param("--budget-s", 900.0, "wall-clock budget in seconds; "
                   "scenarios past it are skipped and fail (default 900)",
                   float),
             Param("--crash-lease-s", 1.0, "worker lease (default 1.0)", float),
             Param("--skew-s", 0.6, "injected clock skew for the skewed-host "
                   "configs (default 0.6)", float),
             Param("--crash-points", None, "only these crash points (default: "
                   "all)", nargs="+", metavar="POINT"),
             Param("--crash-actions", None, "only these actions "
                   f"({', '.join(sorted(CRASH_ACTIONS))})", nargs="+",
                   choices=sorted(CRASH_ACTIONS), metavar="ACTION"),
         ), timed=False),
    Verb("all", "every paper verb above, in order (slow)", _all, _SWEEP),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Reproduce the tables and figures of 'Inter-Block GPU "
            "Communication via Fast Barrier Synchronization' (IPDPS 2010) "
            "on the simulated GTX 280.  '<verb> --help' lists a verb's flags."
        ),
    )
    subparsers = parser.add_subparsers(
        title="verbs", dest="experiment", metavar="<verb>", required=True
    )
    for verb in VERBS:
        sub = subparsers.add_parser(verb.name, help=verb.help, description=verb.help)
        for group in verb.groups:
            title, params = GROUPS[group]
            box = sub.add_argument_group(group, title)
            for param in params:
                param.add_to(box)
        for param in verb.flags:
            param.add_to(sub)
        sub.set_defaults(verb=verb, usage_error=sub.error)
    return parser


def _executor(args: argparse.Namespace):
    """The one executor behind the ``exec`` flags (None: serial, inline)."""
    from repro.parallel import Executor, ResultCache

    journaling = args.journal or args.resume is not None
    if args.jobs == 1 and not args.cache and not journaling:
        return None
    return Executor(
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if args.cache else None,
        journal_dir=args.journal_dir if journaling else None,
    )


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
    """Run one verb and return its exit code.

    A typed :class:`~repro.errors.ReproError` prints ``<verb>: <message>``
    and exits 1; a resumable interrupt exits 130 with a resume hint.
    """
    args = _parser().parse_args(argv)
    verb: Verb = args.verb
    started = time.time()
    try:
        args.cfg = get_preset(args.preset) if "device" in verb.groups else None
        args.executor = _executor(args) if "exec" in verb.groups else None
        text, code = verb.handler(args)
    except InterruptedSweepError as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        print(f"resume with: --resume {exc.run_id}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"{verb.name}: {exc}", file=sys.stderr)
        return 1
    if text:
        print(text)
    if verb.timed:
        _epilogue(verb.name, started, args.executor and args.executor.cache)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
