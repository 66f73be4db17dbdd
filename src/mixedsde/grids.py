"""Uniform time grids and driver declarations.

Everything downstream (synthesis, integration, solving) works on uniform
grids: the circulant fBm embedding needs stationary increments on a uniform
grid, and nothing in the studies calls for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["TimeGrid", "DriverSpec", "check_hurst"]


def check_hurst(value: float) -> float:
    """Validate a Hurst parameter, returning it as a float.

    Any value in (0, 1) is a legal Hurst parameter for synthesis; the
    stricter H > 1/2 requirement of the mixed-equation pipeline is enforced
    by :class:`DriverSpec`, not here.
    """
    h = float(value)
    if not 0.0 < h < 1.0:
        raise DomainError(f"Hurst parameter must lie in (0, 1), got {value!r}")
    return h


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/n, k = 0..n on [0, T]."""

    horizon: float
    step_count: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be a positive finite real, got {self.horizon!r}")
        if self.step_count < 1:
            raise DomainError(f"step_count must be >= 1, got {self.step_count!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.step_count + 1)

    def coarsen(self, stride: int) -> "TimeGrid":
        stride = int(stride)
        if stride < 1 or self.step_count % stride != 0:
            raise DomainError(f"stride {stride} does not divide step_count {self.step_count}")
        return TimeGrid(self.horizon, self.step_count // stride)


@dataclass(frozen=True)
class DriverSpec:
    """Shape and regularity of the noise driving one equation.

    ``wiener_dim`` Wiener coordinates plus ``rough_dim`` independent
    fractional components, each with its own Hurst parameter > 1/2.
    ``holder_order`` is the exponent used for seminorm diagnostics of the
    rough part; it must sit strictly between 1/2 and every Hurst parameter
    (rough paths are Holder of every order below H, not of order H itself).
    """

    wiener_dim: int
    rough_dim: int
    rough_hurst: tuple[float, ...] = ()
    holder_order: float | None = None

    def __post_init__(self):
        if self.wiener_dim < 0 or self.rough_dim < 0:
            raise DomainError("driver dimensions must be non-negative")
        if self.wiener_dim + self.rough_dim < 1:
            raise DomainError("a driver needs at least one Wiener or rough component")
        hs = tuple(check_hurst(h) for h in self.rough_hurst)
        if len(hs) != self.rough_dim:
            raise DomainError(
                f"rough_hurst has {len(hs)} entries for rough_dim={self.rough_dim}"
            )
        object.__setattr__(self, "rough_hurst", hs)
        if self.rough_dim > 0:
            if min(hs) <= 0.5:
                raise DomainError(
                    "rough components must have Hurst parameter > 1/2 "
                    f"(got {min(hs)}); Young integration fails otherwise"
                )
            mu = self.holder_order
            if mu is None:
                mu = min(hs) - 0.01
            mu = float(mu)
            if not 0.5 < mu < min(hs):
                raise DomainError(
                    f"holder_order must lie in (1/2, min Hurst) = (0.5, {min(hs)}), got {mu}"
                )
            object.__setattr__(self, "holder_order", mu)
        elif self.holder_order is not None:
            raise DomainError("holder_order is meaningless without rough components")
