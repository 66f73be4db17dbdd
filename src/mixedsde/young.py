"""Pathwise Young integration on dyadic grid refinements.

Both sums take two path batches and integrate path by path. ``rs_sum`` is
the raw left-point Riemann–Stieltjes sum (the Euler solver's accumulation
for its noise terms). ``young_integrate`` evaluates the trapezoid sum on a
dyadic ladder of subsamples and reports convergence: for self-integrals and
chain-rule identities the trapezoid sum telescopes exactly, while the
left-point sum carries a quadratic-variation deficit of order n^(1-2H) that
no desk-scale refinement removes. Both sums converge to the same Young
limit whenever the Holder orders sum above one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .paths import PathBatch

__all__ = ["YoungResult", "rs_sum", "young_integrate", "young_love_constant", "young_love_rhs"]

_PATH_BLOCK = 64  # paths per block, so the level sums' scratch does not grow with the batch


@dataclass(frozen=True)
class YoungResult:
    """Per-path outcome of a dyadic-refinement Young integration.

    ``value`` and each ``history`` level are (count,) arrays, or (count, dim)
    for a vector integrand. ``error_estimate`` is each path's gap between the
    two finest levels (its Euclidean norm for a vector integrand); a path
    whose ``converged`` entry is False must not be trusted as an integral.
    """

    value: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray
    history: tuple[np.ndarray, ...]


def _level_sums(g: PathBatch, h: PathBatch, strides, left: bool) -> np.ndarray:
    """(len(strides), count[, dim]) sums of g dh over every stride-th grid point.

    Left-point sums read g at each cell's start, trapezoid sums its mean over
    the cell. Paths go 64 at a time, each block copied to C order: matmul then
    reads every path's operands with the strides of a single path, so a sum
    is the one-path ``g.T @ dh`` bit for bit whatever the batch's storage.
    """
    if g.grid != h.grid:
        raise GridMismatchError(f"paths live on different grids: {g.grid} vs {h.grid}")
    if h.dim != 1:
        raise DomainError(f"the integrator must be scalar, got dim={h.dim}")
    if g.count != h.count:
        raise DomainError(f"batches must hold as many paths, got {g.count} and {h.count}")
    out = np.empty((len(strides), g.count, g.dim))
    for lo in range(0, g.count, _PATH_BLOCK):
        rows = slice(lo, lo + _PATH_BLOCK)
        gv, hv = np.ascontiguousarray(g.values[rows]), np.ascontiguousarray(h.values[rows, :, 0])
        for k, s in enumerate(strides):
            gs = gv[:, :-s:s] if left else 0.5 * (gv[:, :-s:s] + gv[:, s::s])
            out[k, rows] = np.matmul(gs.transpose(0, 2, 1), (hv[:, s::s] - hv[:, :-s:s])[:, :, None])[:, :, 0]
    return out[:, :, 0] if g.dim == 1 else out


def rs_sum(g: PathBatch, h: PathBatch) -> np.ndarray:
    """Per-path left-point Riemann–Stieltjes sums of g against the scalar h."""
    return _level_sums(g, h, [1], left=True)[0]


def _dyadic_depth(cells: int) -> int:
    """The largest depth, up to 16, whose dyadic ladder divides ``cells``; refused below 1."""
    depth = min(16, (cells & -cells).bit_length() - 1)
    if depth < 1:
        raise DomainError("young_integrate needs at least two dyadic levels")
    return depth


def young_integrate(g: PathBatch, h: PathBatch, tol: float = 1e-6) -> YoungResult:
    """Integrate each path of g against the same path of h through dyadic subsamples.

    The ladder's depth is the grid's: the largest, up to 16, whose dyadic
    ladder divides its cell count, so a grid of odd cell count is refused.
    Level j uses every 2^(depth-j)-th point of the caller's grid, so the
    coarse sums are exact restrictions of the same path (quadrature error is
    isolated from sampling error). A path's value is its finest-level sum;
    ``converged`` records whether the last refinement moved it by less than
    ``tol``. Non-convergence is an answer, not an exception: for integrand
    pairs below the Young regularity threshold it is the expected outcome.
    An integral over a sub-interval is one over a slice of the batch on its
    sub-grid.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    depth = _dyadic_depth(g.grid.step_count)
    history = _level_sums(g, h, [2 ** (depth - j) for j in range(depth + 1)], left=False)
    step = history[-1] - history[-2]
    # a vector gap is sqrt(v.v) per row, as np.linalg.norm takes it for one vector
    gap = np.abs(step) if g.dim == 1 else np.sqrt(np.matmul(step[:, None, :], step[:, :, None])[:, 0, 0])
    return YoungResult(
        value=history[-1],
        error_estimate=gap,
        converged=gap < tol,
        history=tuple(history),
    )


def young_love_constant(alpha: float, beta: float) -> float:
    """Declared constant for the Young–Love bound: 1 + (1 - 2^(1-a-b))^-1.

    The sewing constant plus the trivial first term; any valid constant
    serves the one-sided check, this one is standard and computable.
    """
    if not alpha + beta > 1:
        raise DomainError(f"Young regime needs alpha + beta > 1, got {alpha} + {beta}")
    return 1.0 + 1.0 / (1.0 - 2.0 ** (1.0 - (alpha + beta)))


def young_love_rhs(
    sup_g: float,
    hol_g_alpha: float,
    hol_h_beta: float,
    a: float,
    b: float,
    alpha: float,
    beta: float,
) -> float:
    """Right-hand side of the Young–Love estimate with the declared constant."""
    if not b > a:
        raise DomainError(f"need a < b, got ({a}, {b})")
    if not np.min((sup_g, hol_g_alpha, hol_h_beta)) >= 0:  # np.min, unlike min, passes a nan on
        raise DomainError("norms must be non-negative")
    width = b - a
    return (
        young_love_constant(alpha, beta)
        * hol_h_beta
        * (sup_g + hol_g_alpha * width**alpha)
        * width**beta
    )
