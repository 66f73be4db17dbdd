"""Discrete paths and path batches on uniform grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .grids import TimeGrid

__all__ = ["DiscretePath", "PathBatch"]


def _as_path_values(values, n_points: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != n_points:
        raise DomainError(f"path values must have shape ({n_points}, dim), got {v.shape}")
    return v


@dataclass(frozen=True)
class DiscretePath:
    """Values of one vector-valued path sampled on a grid; shape (n+1, dim)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_path_values(self.values, self.grid.step_count + 1))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def restrict(self, stride: int) -> "DiscretePath":
        """Exact restriction to every stride-th grid point."""
        return DiscretePath(self.grid.coarsen(stride), self.values[::stride])

    def require_same_grid(self, other: "DiscretePath") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"paths live on different grids: {self.grid} vs {other.grid}"
            )


@dataclass(frozen=True)
class PathBatch:
    """``count`` independent path realizations; values shape (count, n+1, dim)."""

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

    def path(self, i: int) -> DiscretePath:
        return DiscretePath(self.grid, self.values[i])

    def restrict(self, stride: int) -> "PathBatch":
        """Exact restriction of every path to every stride-th grid point."""
        return PathBatch(self.grid.coarsen(stride), self.values[:, ::stride, :])
