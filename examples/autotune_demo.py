#!/usr/bin/env python3
"""Strategy selection two ways: the cost model and brute force.

For a workload/grid configuration, compare:

1. the **model** (:func:`repro.model.tune.predict_all`: Eqs. 3–9 over
   the workload's per-round compute profile, zero measurement);
2. **brute force** (run the full workload under every strategy).

Both should agree on the winner; the point is the cost: the model is
free, brute force costs the whole workload × strategies.  ``repro tune
--measure`` is the same check from the command line.

Usage::

    python examples/autotune_demo.py
"""

from repro import PrefixSum, run
from repro.harness.report import format_table
from repro.model.tune import MODELED_STRATEGIES, predict_all

NUM_BLOCKS = 30


def main() -> None:
    scan = PrefixSum(n=2**13)
    rounds = scan.num_rounds()

    # 1. the model, over the slowest block's cost in each round
    per_round = [
        max(scan.round_cost(r, b, NUM_BLOCKS) for b in range(NUM_BLOCKS))
        for r in range(rounds)
    ]
    predicted = predict_all(rounds, per_round, NUM_BLOCKS)
    model_pick = min(predicted, key=predicted.get)

    # 2. brute force
    measured = {
        name: run(scan, name, num_blocks=NUM_BLOCKS).total_ns
        for name in MODELED_STRATEGIES
    }
    brute = min(measured, key=measured.get)

    rows = [
        [name, f"{predicted[name]/1e6:.3f}", f"{measured[name]/1e6:.3f}"]
        for name in sorted(predicted, key=predicted.get)
    ]
    print(
        format_table(
            ["strategy", "model (ms)", "measured (ms)"],
            rows,
            title=f"Prefix scan n={scan.n}, {NUM_BLOCKS} blocks, {rounds} rounds",
        )
    )
    print(f"\nmodel picks {model_pick!r}, brute force confirms {brute!r}")
    assert model_pick == brute


if __name__ == "__main__":
    main()
