#!/usr/bin/env python3
"""Local sequence alignment with wavefront parallelism (paper §6.2).

Aligns two random DNA sequences with the affine-gap Smith-Waterman
algorithm.  Each anti-diagonal of the scoring matrix is computed in
parallel across blocks, with a grid-wide barrier between diagonals —
the workload where the paper measured a ~50 % synchronization share and
a 24 % end-to-end win for the lock-free barrier.

Also demonstrates the cost model's strategy pick (the paper's
future-work item): given the workload's per-round computation time,
the Eq. 3–9 models predict which barrier to use before running anything.

Usage::

    python examples/sequence_alignment.py [query_len] [subject_len]
"""

import sys

from repro import SmithWaterman, run
from repro.harness.phases import breakdown, compute_only
from repro.harness.report import format_table
from repro.model.tune import predict_all


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    algo = SmithWaterman(n, m)
    num_blocks = 30

    # --- ask the model first ---------------------------------------------
    per_round = [
        max(algo.round_cost(r, b, num_blocks) for b in range(num_blocks))
        for r in range(algo.num_rounds())
    ]
    predicted = predict_all(algo.num_rounds(), per_round, num_blocks)
    model_pick = min(predicted, key=predicted.get)
    rho = sum(per_round) / predicted["cpu-implicit"]
    print(
        f"Model: ρ = {rho:.2f} → predicted best strategy is "
        f"{model_pick!r} at {predicted[model_pick] / 1e6:.3f} ms\n"
    )

    # --- then measure ------------------------------------------------------
    null = compute_only(algo, num_blocks)
    rows = []
    for strategy in ("cpu-implicit", "gpu-simple", "gpu-tree-2", "gpu-lockfree"):
        result = run(algo, strategy, num_blocks=num_blocks)
        assert result.verified
        b = breakdown(result, null)
        rows.append(
            [
                strategy,
                f"{result.total_ms:.3f}",
                f"{b.compute_pct:.1f}%",
                f"{b.sync_pct:.1f}%",
                str(algo.best_score),
            ]
        )
    print(
        format_table(
            ["strategy", "fill time (ms)", "compute", "sync", "best score"],
            rows,
            title=(
                f"Smith-Waterman {n}x{m} "
                f"({algo.num_rounds()} anti-diagonals, {num_blocks} blocks)"
            ),
        )
    )
    best_measured = min(rows, key=lambda r: float(r[1]))[0]
    print(f"\nMeasured best: {best_measured!r}; model said {model_pick!r}.")

    # --- and the actual alignment (sequential trace-back, §6.2) -----------
    from repro.algorithms import traceback

    aln = traceback(algo)
    window = 60
    print(
        f"\nOptimal local alignment (score {aln.score}, "
        f"{100 * aln.identity:.0f}% identity, "
        f"query {aln.query_span}, subject {aln.subject_span}; "
        f"first {window} columns):"
    )
    for line in aln.pretty().splitlines():
        print(f"  {line[:window]}")


if __name__ == "__main__":
    main()
