"""Path batches on uniform grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import TimeGrid

__all__ = ["PathBatch"]


@dataclass(frozen=True)
class PathBatch:
    """``count`` independent path realizations; values shape (count, n+1, dim).

    A single path is a batch of one, and a window of the grid is a slice of
    ``values`` on a sub-grid.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3 or v.shape[1] != self.grid.step_count + 1 or v.shape[0] < 1:
            raise DomainError(
                f"batch values must have shape (count, {self.grid.step_count + 1}, dim), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def restrict(self, stride: int) -> "PathBatch":
        """Exact restriction of every path to every stride-th grid point."""
        return PathBatch(self.grid.coarsen(stride), self.values[:, ::stride, :])
