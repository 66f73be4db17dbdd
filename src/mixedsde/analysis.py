"""Sup norms and Holder seminorms of discrete paths.

All quantities are grid-native: the Holder seminorm is the exact maximum
over grid pairs, which underestimates the continuous seminorm but compares
like with like in every inequality check the studies run.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceError
from .paths import DiscretePath

__all__ = [
    "sup_norm",
    "holder_seminorm",
    "holder_seminorm_batch",
    "SEMINORM_CAP",
]

SEMINORM_CAP = 8192

_LAG_GROUP = 16  # consecutive lags that share one pruning bound
_BLOCK_RATIO = 32  # bounds read blocks of b points, the largest power of two <= window // 32
_PATH_BLOCK = 256  # paths per block while the lag-group bounds are built
_SCAN_VALUES = 2**17  # values per row block of the lag scan (1 MB of float64)
# Relative headroom on a bound before it may skip a group: far above the few
# ulps by which pow, or the norm's sum in another memory order, can break
# monotonicity, and far below any gap worth pruning.
_SLACK = 1.0 + 2.0**-40


def _window_values(path: DiscretePath, a, b) -> tuple[np.ndarray, float]:
    ia, ib = path.grid.window(a, b)
    return path.values[ia : ib + 1], path.grid.dt


def sup_norm(path: DiscretePath, a: float | None = None, b: float | None = None) -> float:
    """Max Euclidean norm of the path over grid points in [a, b]."""
    values, _ = _window_values(path, a, b)
    return float(np.linalg.norm(values, axis=1).max())


def holder_seminorm(
    path: DiscretePath,
    a: float | None = None,
    b: float | None = None,
    exponent: float = 0.5,
) -> float:
    """Exact grid seminorm sup_{t_i < t_j} |f(t_j) - f(t_i)| / (t_j - t_i)^gamma.

    The window's values go through ``holder_seminorm_batch`` as a batch of
    one path, so the scalar and batch results are the same bits. Windows
    longer than ``SEMINORM_CAP`` steps are refused rather than silently
    subsampled.
    """
    values, dt = _window_values(path, a, b)
    return float(holder_seminorm_batch(values[None], dt, exponent)[0])


def _lag_group_bounds(values: np.ndarray, dt: float, exponent: float) -> np.ndarray:
    """(count, groups) upper bounds on the lag ratios of each lag group.

    Group g holds the lags lo..hi = 16g+1..min(16g+16, n). Every pair at a
    lag <= hi lies inside some window of s = hi+1 consecutive grid points,
    so each coordinate of its increment is at most that coordinate's largest
    range (max - min) over such windows, and its norm at most the norm of
    those ranges; dividing by (lo*dt)^gamma bounds the ratios at every lag
    of the group.

    The ranges are taken over blocks rather than points. The group reads
    the extrema of aligned b-point blocks (the last block may be shorter),
    where b is the largest power of two with b <= s // _BLOCK_RATIO (and
    at least 1), so b = 1 up to s = 63. A window of s points starts inside some block and
    touches at most k = ceil((s-1)/b) + 1 consecutive blocks, so the
    largest range over runs of k blocks is still an upper bound, and it is
    at most the exact range over windows of hi + 2b points. The range over
    k blocks comes from doubling windows over the block extrema as in a
    sparse table, so a group costs about n/b values instead of n. Block
    extrema are merged pairwise as b grows, the doubling levels of the
    previous b are dropped first, and paths go one block of 256 at a time,
    so the scratch stays small.
    """
    count, points = values.shape[:2]
    n = points - 1
    his = np.minimum(np.arange(_LAG_GROUP, n + _LAG_GROUP, _LAG_GROUP), n)
    bounds = np.empty((count, len(his)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, _PATH_BLOCK):
            block_top = block_bottom = values[start : start + _PATH_BLOCK]
            size = 1  # grid points per block
            top = bottom = block_top
            width = 1  # blocks per window at the current doubling level
            for g, hi in enumerate(his):
                span = int(hi) + 1
                b = 1 << max(0, (span // _BLOCK_RATIO).bit_length() - 1)
                if b > size:
                    top = bottom = None
                    while size < b:
                        block_top = _merge_pairs(np.maximum, block_top)
                        block_bottom = _merge_pairs(np.minimum, block_bottom)
                        size *= 2
                    top, bottom, width = block_top, block_bottom, 1
                blocks = block_top.shape[1]
                k = min(-(-(span - 1) // b) + 1, blocks)
                while 2 * width <= k:
                    top = np.maximum(top[:, :-width], top[:, width:])
                    bottom = np.minimum(bottom[:, :-width], bottom[:, width:])
                    width *= 2
                # the run of k blocks from j is covered by the level windows at j and j+shift
                shift, last = k - width, blocks - k + 1
                highs = np.maximum(top[:, :last], top[:, shift:])
                widest = (highs - np.minimum(bottom[:, :last], bottom[:, shift:])).max(axis=1)
                if widest.ndim == 2:
                    widest = np.linalg.norm(widest, axis=-1)
                lo = _LAG_GROUP * g + 1
                bounds[start : start + _PATH_BLOCK, g] = widest / (lo * dt) ** exponent
    return bounds


def _merge_pairs(reduce, blocks: np.ndarray) -> np.ndarray:
    """Extrema of adjacent pairs of blocks along axis 1; an odd last block stays alone."""
    pairs = blocks.shape[1] // 2
    merged = np.empty((blocks.shape[0], -(-blocks.shape[1] // 2)) + blocks.shape[2:])
    reduce(blocks[:, 0 : 2 * pairs : 2], blocks[:, 1 : 2 * pairs : 2], out=merged[:, :pairs])
    merged[:, pairs:] = blocks[:, 2 * pairs :]
    return merged


def _groups_to_scan(bounds: np.ndarray, best: np.ndarray):
    """Yield (group, rows) for each lag group with rows left to scan.

    Groups go in decreasing order of their largest bound. A row is settled
    in a group when its finite bound, with _SLACK headroom, cannot raise
    its best ratio, and a nan best is final. ``best`` is read afresh at
    each group, so the caller raises it in place between yields.
    """
    for g in np.argsort(-bounds.max(axis=0, initial=-np.inf), kind="stable"):
        bound = bounds[:, g]
        settled = (bound < np.inf) & (bound * _SLACK <= best)
        rows = np.flatnonzero(~settled & ~np.isnan(best))
        if rows.size:
            yield g, rows


def _check_exponent(exponent: float) -> None:
    if not 0.0 < exponent <= 1.0:
        raise DomainError(f"Holder exponent must lie in (0, 1], got {exponent}")


def holder_seminorm_batch(values: np.ndarray, dt: float, exponent: float) -> np.ndarray:
    """Per-path exact grid seminorms for a (count, n+1[, dim]) value block.

    The result is the maximum over all lags and pairs of the float ratios
    ``|x_j - x_i| / ((j-i)*dt)**exponent`` (Euclidean norm for dim > 1),
    bit for bit the value of a plain scan over every lag. The scan is a
    branch and bound over groups of 16 consecutive lags: each path gets an
    upper bound per group (see ``_lag_group_bounds``), groups are visited
    in decreasing order of their largest bound over the batch, and a group
    is scanned only for the paths whose bound could still beat their
    running maximum. Skipping is exact because rounded subtraction,
    multiplication, division and the norm are monotone, so no computed
    ratio of the group exceeds its computed bound beyond the few ulps by
    which ``pow`` may fail to be monotone; the skip test multiplies the
    bound by ``_SLACK`` to cover them. A nan or infinite value makes the
    bounds of its path nan or inf, and such a bound never skips a group
    unless the path's maximum is already nan, so non-finite inputs return
    what the full scan returns (nan for a nan, inf for a lone inf). The
    worst case, when no bound prunes, is still O(n^2) per path.

    For vector paths each lag squares its differences in the scratch
    buffer, sums the squares in coordinate order as ``np.linalg.norm``
    does, and takes one square root of each row's largest sum; ``sqrt`` is
    monotone and correctly rounded, so that is the largest norm bit for bit.
    For scalar paths a lag's largest ``|x_j - x_i|`` is read from the
    difference buffer as ``max(max d, -min d)``, so the buffer is never
    rewritten. That is the largest ``abs`` bit for bit except on an
    all-zero row, where ``-min d`` is -0.0, and ``np.maximum`` on x86
    returns its second argument on a tie of zeros, so the -0.0 can survive
    into the path's maximum (a subnormal path with dt > 2 shows it). Adding
    +0.0 turns it into the +0.0 that ``abs`` gives and changes no other
    value; nan and inf pass through max and min as through ``abs``.
    """
    _check_exponent(exponent)
    if values.ndim == 3 and values.shape[2] == 1:
        values = values[:, :, 0]
    n = values.shape[1] - 1
    if n > SEMINORM_CAP:
        raise ResourceError(f"seminorm scan capped at {SEMINORM_CAP} steps, got {n}")
    best = np.zeros(values.shape[0])
    bounds = _lag_group_bounds(values, dt, exponent)
    block = max(1, _SCAN_VALUES // values[0].size)
    scratch = np.empty((min(block, values.shape[0]), n) + values.shape[2:])
    squares = np.empty(scratch.shape[:2]) if values.ndim == 3 else None
    for g, rows in _groups_to_scan(bounds, best):
        lags = range(_LAG_GROUP * g + 1, min(_LAG_GROUP * (g + 1), n) + 1)
        for start in range(0, rows.size, block):
            chunk = rows[start : start + block]
            sub = values[chunk]
            group_best = best[chunk]
            for lag in lags:
                diff = np.subtract(sub[:, lag:], sub[:, :-lag], out=scratch[: chunk.size, : n + 1 - lag])
                if diff.ndim == 3:  # squared norms summed in coordinate order, root of the max
                    np.multiply(diff, diff, out=diff)
                    total = np.add(diff[:, :, 0], diff[:, :, 1], out=squares[: chunk.size, : n + 1 - lag])
                    for c in range(2, diff.shape[2]):
                        total += diff[:, :, c]
                    inc = np.sqrt(total.max(axis=1))
                else:  # max |d| without writing |d|; + 0.0 as in the docstring
                    inc = np.maximum(diff.max(axis=1), -diff.min(axis=1)) + 0.0
                np.maximum(group_best, inc / (lag * dt) ** exponent, out=group_best)
            best[chunk] = group_best
    return best
