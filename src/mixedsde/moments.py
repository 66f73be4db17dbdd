"""Monte Carlo moment estimation and the finiteness studies.

The integrability statements under test are qualitative, so "finite" is
operationalized as: estimates stable across dyadic grid refinements under
common random numbers, no blowup paths, and no single sample dominating an
exponential-moment sum. Models that violate the hypotheses are expected to
fail exactly these diagnostics, which is what makes them falsifiable at
desk scale.

Blowup paths are excluded from every mean but always counted and surfaced:
silently dropping them would fabricate finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .analysis import holder_seminorm_batch
from .errors import DomainError, EstimationError
from .fbm import generate_fbm
from .grids import TimeGrid
from .models import CoupledModelSpec
from .solver import SolveOutput, check_levels, solve_levels

__all__ = [
    "MomentTarget",
    "MomentEstimate",
    "StabilityTable",
    "FerniqueTailReport",
    "moment_estimate",
    "grid_stability_tables",
    "fernique_tail_check",
    "exp_moment_exponent_bound",
]

TAIL_DOMINANCE_THRESHOLD = 0.2


def exp_moment_exponent_bound(mu: float) -> float:
    """Admissible exponential-moment exponent bound 4*mu/(2*mu + 1)."""
    return 4 * mu / (2 * mu + 1)


@dataclass(frozen=True)
class MomentTarget:
    """Which moment to estimate: sup-norm power p, or exp{c * sup^gamma}."""

    kind: str  # "sup" | "exp"
    p: float | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == "sup":
            if self.p is None or self.p <= 0:
                raise DomainError(f"sup target needs p > 0, got {self.p}")
        elif self.kind == "exp":
            if self.c is None or self.c <= 0 or self.gamma is None or self.gamma <= 0:
                raise DomainError(f"exp target needs c > 0 and gamma > 0, got c={self.c}, gamma={self.gamma}")
        else:
            raise DomainError(f"unknown moment target kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "sup":
            return f"E sup^p, p={self.p:g}"
        return f"E exp(c sup^gamma), c={self.c:g}, gamma={self.gamma:g}"


@dataclass(frozen=True)
class MomentEstimate:
    """One Monte Carlo moment estimate with its honesty diagnostics.

    ``tail_dominance`` is the share of the sum contributed by the single
    largest sample; past ``TAIL_DOMINANCE_THRESHOLD`` the law of large
    numbers is visibly failing and finiteness cannot be distinguished from
    divergence at this sample size. ``blowup_count`` > 0 voids any
    finiteness claim for the batch even though the mean over survivors is
    still reported.
    """

    target: str
    estimate: float
    standard_error: float
    ci_low: float
    ci_high: float
    sample_count: int
    blowup_count: int
    tail_dominance: float
    overflow_count: int
    unstable: bool


def _estimate_from_sups(sups: np.ndarray, blowup_count: int, target: MomentTarget) -> MomentEstimate:
    n = len(sups)
    if n == 0:
        raise EstimationError("every path blew up; nothing to estimate")
    with np.errstate(over="ignore"):
        if target.kind == "sup":
            values = sups**target.p
        else:
            values = np.exp(target.c * sups**target.gamma)
        overflow = int(np.sum(~np.isfinite(values)))
        total = math.fsum(values)  # compensated summation; inf stays inf
        estimate = total / n
        if overflow or not np.isfinite(total):
            dominance = 1.0
            se = float("inf")
            ci = (min(estimate, float("inf")), float("inf"))
        else:
            dominance = float(values.max() / total) if total > 0 else 0.0
            se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            ci = (estimate - 1.96 * se, estimate + 1.96 * se)
    unstable = overflow > 0 or (target.kind == "exp" and dominance > TAIL_DOMINANCE_THRESHOLD)
    return MomentEstimate(
        target=target.label,
        estimate=float(estimate),
        standard_error=se,
        ci_low=float(ci[0]),
        ci_high=float(ci[1]),
        sample_count=n,
        blowup_count=int(blowup_count),
        tail_dominance=dominance,
        overflow_count=overflow,
        unstable=bool(unstable),
    )


def moment_estimate(output: SolveOutput, target: MomentTarget) -> MomentEstimate:
    """Sample mean of the target's sup-norm statistic over the non-blowup paths.

    Overflowing samples are counted and flagged, never clipped: an estimate
    whose sum a single path dominates (or overflows) is marked unstable.
    """
    return _estimate_from_sups(output.survivor_sup_norms(), output.blowup_count, target)


# --------------------------------------------------------------------------
# grid stability


@dataclass(frozen=True)
class StabilityTable:
    """Moment estimates across dyadic grid levels plus consecutive ratios."""

    target: str
    levels: tuple[int, ...]
    estimates: tuple[MomentEstimate, ...]
    ratios: tuple[float, ...]

    @property
    def rows(self):
        return tuple(zip(self.levels, self.estimates))

    @property
    def total_blowups(self) -> int:
        return sum(e.blowup_count for e in self.estimates)


def _unpack_model(model):
    if isinstance(model, tuple):
        model_x, model_y = model
        if not isinstance(model_y, CoupledModelSpec):
            raise DomainError("a model pair must be (ModelSpec, CoupledModelSpec)")
        return model_x, model_y
    if isinstance(model, CoupledModelSpec):
        raise DomainError("a coupled model needs its primary stage: pass (model_x, model_y)")
    return model, None


def _sups_by_level(model, levels, paths, seed, workers):
    """{level: (survivor sup norms, blowup count)} under common random numbers.

    :func:`solve_levels` draws each path chunk's drivers once on the finest
    grid and every level solves on their restriction, so level-to-level
    differences carry no fresh sampling noise.
    """
    levels = check_levels(levels)
    model_x, model_y = _unpack_model(model)

    def job(lo, hi):
        return solve_levels(
            model_x, model_y, levels, hi - lo, seed, lo, lambda out: (out.survivor_sup_norms(), out.blowup_count)
        )

    results = parallel.map_paths(job, paths, workers)
    return {
        n: (np.concatenate([r[n][0] for r in results]), sum(r[n][1] for r in results)) for n in levels
    }


def _level_ratio(prev: float, nxt: float) -> float:
    """nxt / prev; inf when only prev is 0 (escaping), nan when both are (no move)."""
    if prev != 0:
        return nxt / prev
    return float("nan") if nxt == 0 else float("inf")


def grid_stability_tables(
    model,
    targets,
    levels,
    paths: int,
    seed: int,
    workers: int = 1,
) -> list[StabilityTable]:
    """One stability table per target, all sharing the same solved paths.

    ``model`` is a ModelSpec or a (ModelSpec, CoupledModelSpec) pair; for a
    pair the statistic is taken on the coupled stage. The stability ratio
    r_n = estimate(2n)/estimate(n) should hover near 1 for a model whose
    moments are finite; blowups or escaping ratios are the failure signal.
    """
    per_level = _sups_by_level(model, levels, paths, seed, workers)
    levels = tuple(per_level)
    tables = []
    for target in targets:
        estimates = tuple(
            _estimate_from_sups(per_level[n][0], per_level[n][1], target) for n in levels
        )
        ratios = tuple(_level_ratio(a.estimate, b.estimate) for a, b in zip(estimates, estimates[1:]))
        tables.append(
            StabilityTable(target=target.label, levels=levels, estimates=estimates, ratios=ratios)
        )
    return tables


# --------------------------------------------------------------------------
# Fernique tail check


@dataclass(frozen=True)
class FerniqueTailReport:
    """Gaussian-type tail diagnostic for the fBm Holder seminorm.

    ``mode == "fit"``: log survival of the seminorm regressed on x^2 over
    the empirical upper decile; a Gaussian-type tail shows a negative slope
    with high R^2. ``mode == "growth"`` (requested order at or above the
    Hurst parameter): the grid seminorm has no continuum limit, so the fit
    is skipped and its growth under refinement is reported instead.
    """

    mode: str
    hurst: float
    holder_order: float
    step_count: int
    paths: int
    slope: float
    r_squared: float
    tail_start: float
    seminorm_median: float
    coarse_median: float
    growth_ratio: float


FERNIQUE_MIN_PATHS = 100


def _check_tail_order(holder_order: float) -> None:
    if not 0.0 < holder_order < 1.0:
        raise DomainError(f"holder_order must lie in (0, 1), got {holder_order}")


def fernique_tail_check(
    hurst: float,
    holder_order: float,
    grid: TimeGrid,
    paths: int,
    seed: int,
    workers: int = 1,
) -> FerniqueTailReport:
    """Empirical exp-square tail check for the fBm Holder seminorm."""
    if paths < FERNIQUE_MIN_PATHS:
        raise DomainError(f"tail fitting needs at least {FERNIQUE_MIN_PATHS} paths, got {paths}")
    _check_tail_order(holder_order)
    fit_mode = holder_order < hurst

    def job(lo, hi):
        batch = generate_fbm(grid, hurst, hi - lo, seed, path_offset=lo)
        fine = holder_seminorm_batch(batch.values, grid.dt, holder_order)
        if fit_mode:
            return fine, None
        coarse_batch = batch.restrict(2)
        coarse = holder_seminorm_batch(coarse_batch.values, coarse_batch.grid.dt, holder_order)
        return fine, coarse

    results = parallel.map_paths(job, paths, workers)
    seminorms = np.concatenate([r[0] for r in results])
    median = float(np.median(seminorms))

    if not fit_mode:
        coarse = np.concatenate([r[1] for r in results])
        coarse_median = float(np.median(coarse))
        return FerniqueTailReport(
            mode="growth",
            hurst=hurst,
            holder_order=holder_order,
            step_count=grid.step_count,
            paths=paths,
            slope=float("nan"),
            r_squared=float("nan"),
            tail_start=float("nan"),
            seminorm_median=median,
            coarse_median=coarse_median,
            growth_ratio=median / coarse_median if coarse_median > 0 else float("inf"),
        )

    order = np.sort(seminorms)
    n = len(order)
    start = int(0.9 * n)
    tail = order[start : n - 1]  # drop the max, whose empirical survival is 0
    if len(tail) < 8:
        raise EstimationError("too few tail points for the survival fit")
    if np.std(tail) == 0:
        raise EstimationError("degenerate seminorm sample; cannot fit a tail")
    survival = 1.0 - (np.arange(start, n - 1) + 1) / n
    x = tail**2
    y = np.log(survival)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return FerniqueTailReport(
        mode="fit",
        hurst=hurst,
        holder_order=holder_order,
        step_count=grid.step_count,
        paths=paths,
        slope=float(coef[0]),
        r_squared=1.0 - ss_res / ss_tot,
        tail_start=float(order[start]),
        seminorm_median=median,
        coarse_median=float("nan"),
        growth_ratio=float("nan"),
    )
