"""Seeded schedule fuzzing: deterministic adversarial interleavings.

The simulator is FIFO-deterministic: events at equal virtual times run
in scheduling order.  Real hardware makes no such promise — warp
schedulers and block dispatchers interleave freely — so a barrier
protocol that only works under FIFO dispatch is broken even though the
plain simulation never shows it.  :class:`ScheduleFuzzer` perturbs
exactly the orderings hardware leaves unspecified:

* **ready-queue order** — same-time events in the engine's heap pop in
  a seeded pseudo-random order (:meth:`queue_priority` feeds
  ``Engine(tiebreak=...)``);
* **block placement** — ties between equally-loaded SMs are broken by
  a seeded choice (:meth:`sm_tiebreak` feeds ``SmPlacement``).  It
  picks only the SM: a block takes its SM slot before it is placed, so
  *which* blocks become resident when a grid exceeds co-resident
  capacity follows the slot queue.

Virtual timestamps are untouched, so fuzzed runs remain valid
measurements.  Everything is a pure function of the seed: the same seed
replays the same schedule, which is why failure reports always carry it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

from repro.errors import ConfigError

__all__ = ["ScheduleFuzzer", "derive_seeds", "fuzz_schedules", "seed_payloads"]


def derive_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent schedule seeds derived from one base seed.

    Splitting through a dedicated PRNG keeps the per-schedule seeds
    stable under changes to ``n``: seed ``i`` of 100 equals seed ``i``
    of 10, so a failure found in a long campaign replays in a short one.
    """
    if n < 0:
        raise ConfigError(f"need n >= 0 schedules, got {n}")
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(n)]


def seed_payloads(
    seed: int, n: int, base: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One executor payload per derived seed: ``{**base, "seed": s}``.

    The bridge between seed derivation and the
    :class:`repro.parallel.Executor`: campaigns (chaos plans, sanitizer
    schedules) fan out one payload per schedule seed, all sharing the
    ``base`` configuration.  Payload ``i`` is stable under changes to
    ``n`` — the same property :func:`derive_seeds` guarantees — so cached
    results survive campaign resizing.
    """
    return [{**base, "seed": derived} for derived in derive_seeds(seed, n)]


class ScheduleFuzzer:
    """One seeded permutation layer over scheduler and engine ordering.

    Use one instance per simulated run — the internal PRNG advances with
    every scheduling decision, so sharing an instance across runs makes
    the second run's schedule depend on the first's length.
    """

    def __init__(self, seed: int):
        #: the seed that reproduces this exact schedule.
        self.seed = seed
        self._rng = random.Random(seed)
        #: scheduling decisions influenced so far (diagnostics).
        self.decisions = 0

    def queue_priority(self) -> float:
        """Priority for the next engine event among same-time peers."""
        self.decisions += 1
        return self._rng.random()

    def sm_tiebreak(self, candidates: List[int]) -> int:
        """Choose among equally-least-loaded SMs."""
        self.decisions += 1
        return self._rng.choice(candidates)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScheduleFuzzer(seed={self.seed})"


def fuzz_schedules(seed: int, n: int) -> Iterator[ScheduleFuzzer]:
    """Yield ``n`` fresh fuzzers with seeds derived from ``seed``.

    The generator form mirrors the pytest fixture of the same name
    (:mod:`repro.sanitize.pytest_plugin`)::

        for fuzzer in fuzz_schedules(seed=2010, n=100):
            run(algo, strategy, blocks, fuzzer=fuzzer)
    """
    for derived in derive_seeds(seed, n):
        yield ScheduleFuzzer(derived)
