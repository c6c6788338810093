"""Kernel specifications: the static description of a device program."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator

from repro.errors import LaunchError

__all__ = ["KernelSpec", "DeviceProgram"]

#: A device program: called once per block with that block's context, and
#: yields simcore effects (via the BlockCtx helpers).
DeviceProgram = Callable[..., Generator]


@dataclass(frozen=True)
class KernelSpec:
    """Grid/block shape plus the device program to run.

    Mirrors a CUDA ``kernel<<<grid, block, sharedMem>>>(args...)`` launch:

    * ``program(ctx, **params)`` is run once per block (the simulator's
      agent granularity is one process per block — the leading thread —
      with intra-block parallelism folded into the cost model);
    * ``grid_blocks`` is the 1-D grid size;
    * ``block_threads`` is threads per block (validated against the
      device's limit at launch);
    * ``shared_mem_per_block`` participates in occupancy.  Device-side
      barrier strategies set it to the SM's full shared memory to force a
      one-to-one block↔SM mapping (paper §5).
    """

    name: str
    program: DeviceProgram
    grid_blocks: int
    block_threads: int
    shared_mem_per_block: int = 0
    registers_per_thread: int = 16
    params: Dict[str, Any] = field(default_factory=dict)
    #: optional 2-D shapes (paper Figs. 6/9 index 2-D grids); when set,
    #: their products must equal grid_blocks / block_threads.
    grid_dim: "tuple[int, int] | None" = None
    block_dim: "tuple[int, int] | None" = None

    def __post_init__(self) -> None:
        if self.grid_blocks < 1:
            raise LaunchError(f"grid_blocks must be >= 1, got {self.grid_blocks}")
        if self.block_threads < 1:
            raise LaunchError(
                f"block_threads must be >= 1, got {self.block_threads}"
            )
        if self.shared_mem_per_block < 0:
            raise LaunchError("shared_mem_per_block must be non-negative")
        if not callable(self.program):
            raise LaunchError("program must be callable")
        for dims, total, what in (
            (self.grid_dim, self.grid_blocks, "grid"),
            (self.block_dim, self.block_threads, "block"),
        ):
            if dims is None:
                continue
            if len(dims) != 2 or dims[0] < 1 or dims[1] < 1:
                raise LaunchError(f"{what}_dim must be a pair of positive ints")
            if dims[0] * dims[1] != total:
                raise LaunchError(
                    f"{what}_dim {dims} does not multiply out to {total}"
                )

    @classmethod
    def dim3(
        cls,
        name: str,
        program: DeviceProgram,
        grid: "tuple[int, int]",
        block: "tuple[int, int]",
        **kwargs: Any,
    ) -> "KernelSpec":
        """CUDA-style constructor: ``kernel<<<dim3(gx,gy), dim3(bx,by)>>>``."""
        return cls(
            name=name,
            program=program,
            grid_blocks=grid[0] * grid[1],
            block_threads=block[0] * block[1],
            grid_dim=tuple(grid),
            block_dim=tuple(block),
            **kwargs,
        )

    @property
    def effective_grid_dim(self) -> "tuple[int, int]":
        """The 2-D grid shape ((N, 1) for 1-D launches)."""
        return self.grid_dim or (self.grid_blocks, 1)

    @property
    def effective_block_dim(self) -> "tuple[int, int]":
        """The 2-D block shape ((T, 1) for 1-D launches)."""
        return self.block_dim or (self.block_threads, 1)
