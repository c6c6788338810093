"""Cross-generation study — would the paper's conclusions hold on Fermi?

Runs the micro-benchmark barrier comparison on the calibrated GTX 280
and on an illustrative Fermi-class device (L2-cached atomics, fewer but
wider SMs, leaner launches; see :mod:`repro.gpu.presets`).  Qualitative
expectations, which this bench asserts:

* the **ordering is preserved** on both generations — lock-free wins,
  relaunch-based CPU sync loses; the paper's contribution is not an
  artifact of GT200's slow atomics;
* the **gaps compress**: cheap atomics pull GPU simple sync down hard
  (its slope *is* the atomic cost), so the case for avoiding atomics is
  weaker on Fermi — foreshadowing why later grid barriers were content
  to use atomic counters.
"""

from benchmarks.conftest import save_report
from repro.gpu.presets import get_preset
from repro.harness.phases import probe_barrier_cost
from repro.harness.report import format_table

ROUNDS = 100
STRATEGIES = ("cpu-implicit", "gpu-simple", "gpu-tree-2", "gpu-lockfree")


def _barrier_costs(config):
    blocks = config.num_sms  # each device's full co-residency
    # The probe verifies every run; a wrong answer raises.
    return blocks, {
        strat: probe_barrier_cost(strat, blocks, config, ROUNDS)
        for strat in STRATEGIES
    }


def test_generations(benchmark):
    def measure():
        return {
            "GTX 280 (calibrated)": _barrier_costs(get_preset("gtx280")),
            "Fermi-class (illustrative)": _barrier_costs(get_preset("fermi_class")),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    for device, (_blocks, costs) in results.items():
        # Ordering preserved on both generations.
        assert costs["gpu-lockfree"] < costs["gpu-tree-2"], device
        assert costs["gpu-lockfree"] < costs["cpu-implicit"], device

    # The atomic-avoidance gap compresses on Fermi: simple/lock-free
    # cost ratio shrinks relative to the GT200 one.
    _b, gt200 = results["GTX 280 (calibrated)"]
    _b, fermi = results["Fermi-class (illustrative)"]
    gt200_ratio = gt200["gpu-simple"] / gt200["gpu-lockfree"]
    fermi_ratio = fermi["gpu-simple"] / fermi["gpu-lockfree"]
    assert fermi_ratio < gt200_ratio

    rows = []
    for device, (blocks, costs) in results.items():
        for strat in STRATEGIES:
            rows.append([device, str(blocks), strat, f"{costs[strat]/1e3:.2f}"])
    save_report(
        "generations",
        format_table(
            ["device", "blocks", "strategy", "per-round sync (µs)"],
            rows,
            title="Cross-generation barrier costs (micro-benchmark)",
        ),
    )
