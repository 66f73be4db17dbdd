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
from .fbm import batch_path_bytes, generate_fbm
from .grids import TimeGrid
from .solver import SolveOutput, check_levels, ladder_path_bytes, solve_levels

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
            if self.p is None or not self.p > 0:
                raise DomainError(f"sup target needs p > 0, got {self.p}")
        elif self.kind == "exp":
            if self.c is None or not self.c > 0 or self.gamma is None or not self.gamma > 0:
                raise DomainError(f"exp target needs c > 0 and gamma > 0, got c={self.c}, gamma={self.gamma}")
        else:
            raise DomainError(f"unknown moment target kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "sup":
            return f"E sup^p, p={_number(self.p)}"
        return f"E exp(c sup^gamma), c={_number(self.c)}, gamma={_number(self.gamma)}"


def _number(x: float) -> str:
    """``x`` as ``:g`` writes it when that reads back as ``x``, else its round-trip repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class MomentEstimate:
    """One Monte Carlo moment estimate with its honesty diagnostics.

    ``tail_dominance`` is the largest sample's share of the sum. ``unstable``
    is set past ``TAIL_DOMINANCE_THRESHOLD`` (exp targets), or when the sum
    is not finite (a sample overflowed, or finite ones summed past the
    largest double: the estimate and error bars are then ``inf``). Either
    way finiteness cannot be told from divergence at this sample size.
    ``sample_count + blowup_count`` is the path count; ``blowup_count`` > 0
    voids any finiteness claim, though the finite paths' mean is reported.
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


def _estimate_from_sups(slots: np.ndarray, target: MomentTarget) -> MomentEstimate:
    """Estimate from one sup slot per path: NaN slots are blowups, counted and dropped in path order."""
    sups = slots[~np.isnan(slots)]
    n = len(sups)
    if n == 0:
        raise EstimationError("every path blew up; nothing to estimate")
    with np.errstate(over="ignore"):
        if target.kind == "sup":
            values = sups**target.p
        else:
            values = np.exp(target.c * sups**target.gamma)
        overflow = int(np.sum(~np.isfinite(values)))
        try:
            total = math.fsum(values)  # compensated summation; inf stays inf
        except OverflowError:  # finite samples whose sum passes the largest double
            total = math.inf
        estimate = total / n
        if not math.isfinite(total):
            dominance, se, ci = 1.0, math.inf, (estimate, math.inf)
        else:
            dominance = float(values.max() / total) if total > 0 else 0.0
            se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")  # one sample: no spread
            ci = (estimate - 1.96 * se, estimate + 1.96 * se)
    unstable = not math.isfinite(total) or (target.kind == "exp" and dominance > TAIL_DOMINANCE_THRESHOLD)
    return MomentEstimate(
        target=target.label,
        estimate=float(estimate),
        standard_error=se,
        ci_low=float(ci[0]),
        ci_high=float(ci[1]),
        sample_count=n,
        blowup_count=len(slots) - n,
        tail_dominance=dominance,
        overflow_count=overflow,
        unstable=bool(unstable),
    )


def moment_estimate(output: SolveOutput, target: MomentTarget) -> MomentEstimate:
    """Sample mean of the target's sup-norm statistic over the non-blowup paths.

    It reads ``output.sup_norms()``, whose entry i is path i and NaN exactly
    where that path blew up; the NaN slots make ``blowup_count``.
    Overflowing samples are counted and flagged, never clipped: an estimate
    whose sum a single path dominates (or overflows) is marked unstable.
    """
    return _estimate_from_sups(output.sup_norms(), target)


# --------------------------------------------------------------------------
# grid stability


@dataclass(frozen=True)
class StabilityTable:
    """Moment estimates across dyadic grid levels plus consecutive ratios."""

    target: str
    levels: tuple[int, ...]
    estimates: tuple[MomentEstimate, ...]
    ratios: tuple[float, ...]


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

    ``model`` is a ModelSpec or a CoupledModelSpec; for a coupled model the
    statistic is taken on the coupled stage. The stability ratio
    r_n = estimate(2n)/estimate(n) should hover near 1 for a model whose
    moments are finite; blowups or escaping ratios are the failure signal.

    Common random numbers: each path chunk is one :func:`solve_levels` call,
    which draws the chunk's drivers once on the finest grid and solves every
    level on their restriction, so level-to-level differences carry no fresh
    sampling noise. Each level joins one sup array whose entry i is path i.
    """
    levels = check_levels(levels)

    def job(lo, hi):
        return solve_levels(model, levels, hi - lo, seed, lo, SolveOutput.sup_norms)

    per_level = parallel.map_paths(job, paths, workers, ladder_path_bytes(model, levels))
    tables = []
    for target in targets:
        estimates = tuple(_estimate_from_sups(sups, target) for sups in per_level.values())
        ratios = tuple(_level_ratio(a.estimate, b.estimate) for a, b in zip(estimates, estimates[1:]))
        tables.append(StabilityTable(target=target.label, levels=levels, estimates=estimates, ratios=ratios))
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


def _sorted_median(a: np.ndarray) -> float:
    """``np.median`` of an ascending sample, nans last, bit for bit; it never imports ``numpy.ma``.

    ``np.median`` means the middle values with a sum that starts at 0.0, so a
    median of -0.0 reads 0.0; the sums below add in the same order.
    """
    mid = len(a) // 2
    if np.isnan(a[-1]):
        return float("nan")
    return float(0.0 + a[mid] if len(a) % 2 else (0.0 + a[mid - 1] + a[mid]) / 2)


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
    coarse_grid = None if fit_mode else grid.coarsen(2)  # growth mode: an odd n fails before any work

    def job(lo, hi):
        batch = generate_fbm(grid, hurst, hi - lo, seed, path_offset=lo)
        coarse = None if fit_mode else holder_seminorm_batch(batch.values[:, ::2], coarse_grid.dt, holder_order)
        return holder_seminorm_batch(batch.values, grid.dt, holder_order), coarse

    seminorms, coarse = parallel.map_paths(job, paths, workers, batch_path_bytes(grid.step_count))
    order = np.sort(seminorms)
    median = _sorted_median(order)
    nan = float("nan")
    run = dict(hurst=hurst, holder_order=holder_order, step_count=grid.step_count, paths=paths, seminorm_median=median)

    if not fit_mode:
        coarse_median = _sorted_median(np.sort(coarse))
        return FerniqueTailReport(
            mode="growth",
            **run,
            slope=nan,
            r_squared=nan,
            tail_start=nan,
            coarse_median=coarse_median,
            growth_ratio=median / coarse_median if coarse_median > 0 else float("inf"),
        )

    n = len(order)
    start = int(0.9 * n)
    tail = order[start : n - 1]  # drop the max, whose empirical survival is 0
    if len(tail) < 8:
        raise EstimationError("too few tail points for the survival fit")
    if np.std(tail) == 0:
        raise EstimationError("degenerate seminorm sample; cannot fit a tail")
    survival = 1.0 - (np.arange(start, n - 1) + 1) / n
    x = tail**2
    # the fit reads x^2 over 2^e, the power of two just above its median: an
    # exact scaling that keeps it free of the horizon's scale (unscaled, lstsq
    # drops the x^2 column as rank-deficient at tiny horizons)
    e = np.frexp(_sorted_median(x))[1]  # x is ascending, as tail is
    y = np.log(survival)
    design = np.vstack([np.ldexp(x, -e), np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return FerniqueTailReport(
        mode="fit",
        **run,
        slope=float(np.ldexp(coef[0], -e)),
        r_squared=1.0 - ss_res / ss_tot,
        tail_start=float(order[start]),
        coarse_median=nan,
        growth_ratio=nan,
    )
