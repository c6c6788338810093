"""The round-structured algorithm interface shared by all workloads."""

from __future__ import annotations

import abc
from numbers import Integral
from typing import Any, Callable, Optional

from repro.errors import ConfigError

__all__ = ["RoundAlgorithm", "VerificationError", "require_int"]


def require_int(label: str, value: Any, minimum: Optional[int] = None) -> None:
    """Check that ``value`` is an ``int``, of at least ``minimum`` if given.

    Raises :class:`~repro.errors.ConfigError` otherwise, also for a
    ``bool``; ``label`` names the value in the message.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{label} must be an int{bound}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{label} must be an int >= {minimum}, got {value!r}")


class VerificationError(AssertionError):
    """An algorithm's output failed verification against its reference."""


class RoundAlgorithm(abc.ABC):
    """A computation structured as rounds separated by grid-wide barriers.

    The contract with the runner (:mod:`repro.harness.runner`):

    * :meth:`reset` (re)initializes all working state from the inputs —
      called before every run, so one instance can be swept over many
      strategies and block counts;
    * rounds are numbered ``0 .. num_rounds()-1``; in each round every
      block ``b`` of ``B`` executes :meth:`round_work` on its disjoint
      slice, at a simulated cost of :meth:`round_cost` nanoseconds;
    * :meth:`round_cost` depends on the shape only (the round, the
      block, the block count and the sizes fixed at construction), never
      on the working arrays: the compute-only run of §7.3
      (:func:`repro.harness.phases.compute_only`) charges these costs
      without applying any round work;
    * :meth:`round_work` is applied *after* its cost elapses, so
      out-of-order execution under a broken barrier really does read
      stale data;
    * :meth:`verify` checks the final state against an independent
      reference and raises :class:`VerificationError` on mismatch.
    """

    #: algorithm identifier, e.g. ``"fft"``.
    name: str = "abstract"
    #: threads per block the paper used for this workload (§7.2).
    default_threads: int = 256
    #: Steady-state fast-forward opt-in.  An algorithm whose rounds all
    #: cost the same and do the same work sets this to a method that
    #: applies ``count`` further rounds' work in one step.  The runner
    #: may then simulate a short prefix, check that it is periodic and
    #: splice in the remaining rounds instead of simulating them
    #: (docs/simulator.md, "Steady-state fast-forward").  ``None``, the
    #: default, means "not eligible": every round is simulated.
    skip_rounds: Optional[Callable[[int], None]] = None

    @abc.abstractmethod
    def num_rounds(self) -> int:
        """Number of barrier-separated rounds."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Reinitialize working state from the immutable inputs."""

    @abc.abstractmethod
    def round_cost(self, round_idx: int, block_id: int, num_blocks: int) -> float:
        """Simulated computation cost (ns) of this block's round slice.

        A function of the shape only, never of the working arrays.
        """

    @abc.abstractmethod
    def round_work(
        self, round_idx: int, block_id: int, num_blocks: int
    ) -> Optional[Callable[[], None]]:
        """The block's actual computation for this round (or ``None``).

        The returned callable mutates the algorithm's working arrays for
        the block's slice.  Slices of concurrent blocks must be
        write-disjoint within a round.
        """

    @abc.abstractmethod
    def verify(self) -> None:
        """Raise :class:`VerificationError` unless the output is correct."""

    # -- conveniences ----------------------------------------------------------

    def describe(self) -> str:
        """One-line description for reports."""
        return f"{self.name}: {self.num_rounds()} rounds"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.describe()}>"
