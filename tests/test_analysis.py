import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mixedsde import (
    DomainError,
    ResourceError,
    TimeGrid,
    generate_fbm,
    holder_seminorm_batch,
)
from mixedsde import analysis


def seminorm(values, exponent, horizon=1.0):
    """Grid seminorm of one path on [0, horizon], as a batch of one."""
    values = np.asarray(values, dtype=float)
    return holder_seminorm_batch(values[None], TimeGrid(horizon, len(values) - 1).dt, exponent)[0]


def brute_force_seminorm(values, dt, gamma):
    values = np.atleast_2d(np.asarray(values, dtype=float).T).T
    n = len(values) - 1
    best = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num = np.linalg.norm(values[j] - values[i])
            best = max(best, num / ((j - i) * dt) ** gamma)
    return best


def lag_scan_seminorm(values, dt, gamma):
    """Plain O(n^2) scan over every lag: the same float ratios, no pruning."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 3 and values.shape[2] == 1:
        values = values[:, :, 0]
    best = np.zeros(values.shape[0])
    for lag in range(1, values.shape[1]):
        diff = values[:, lag:] - values[:, :-lag]
        inc = np.linalg.norm(diff, axis=-1) if diff.ndim == 3 else np.abs(diff)
        np.maximum(best, inc.max(axis=1) / (lag * dt) ** gamma, out=best)
    return best


def assert_exact(values, dt, gamma):
    got = holder_seminorm_batch(values, dt, gamma)
    assert np.array_equal(got, lag_scan_seminorm(values, dt, gamma), equal_nan=True)
    return got


# ------------------------------------------------------------------ seminorm


def test_seminorm_linear_path_gamma_one():
    t = np.linspace(0, 1, 33)
    assert seminorm(t, 1.0) == pytest.approx(1.0)


def test_seminorm_constant_path_is_zero():
    assert seminorm(np.full(33, 2.5), 0.5) == 0.0


def test_seminorm_sqrt_path_attains_one_at_origin():
    t = np.linspace(0, 1, 1025)
    # |sqrt(t) - sqrt(s)| <= |t-s|^{1/2}, equality at s=0: the (0, t_1) pair
    assert seminorm(np.sqrt(t), 0.5) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_matches_brute_force_on_rough_path(fbm_750_1024):
    p = fbm_750_1024.restrict(16)  # n=64: brute force is affordable
    expected = brute_force_seminorm(p.values[1], p.grid.dt, 0.7)
    assert seminorm(p.values[1, :, 0], 0.7) == pytest.approx(expected)


def test_seminorm_batch_agrees_with_scalar(fbm_750_1024):
    sub = fbm_750_1024.values[:5, ::16, :]
    grid = TimeGrid(1.0, 64)
    batch = holder_seminorm_batch(sub, grid.dt, 0.65)
    for i in range(5):
        single = holder_seminorm_batch(sub[i : i + 1], grid.dt, 0.65)[0]
        assert batch[i] == single


@pytest.mark.parametrize("gamma", np.linspace(0.05, 1.0, 20))
def test_seminorm_batch_exact_across_exponents(fbm_750_1024, gamma):
    assert_exact(fbm_750_1024.values[:16, ::8], 1.0 / 128, gamma)


@pytest.mark.parametrize("gamma", [0.65, 0.74, 0.9])
def test_seminorm_batch_exact_on_full_resolution_fbm(fbm_750_1024, gamma):
    assert_exact(fbm_750_1024.values, 1.0 / 1024, gamma)


@pytest.mark.parametrize("n", [1, 17])
def test_seminorm_batch_exact_off_group_boundaries(n):
    # n = 17 leaves a last lag group of one lag; n = 1 is a single group
    rng = np.random.default_rng(n)
    values = np.cumsum(rng.standard_normal((8, n + 1)), axis=1)
    for gamma in (0.3, 0.65, 1.0):
        assert_exact(values, 1.0 / n, gamma)


def test_seminorm_batch_exact_on_ties():
    # every lag of a linear path ties at gamma = 1; a constant path ties at 0
    t = np.linspace(0, 1, 65)
    values = np.stack([t, 3.0 * t, np.full(65, 2.5)])
    got = assert_exact(values, 1.0 / 64, 1.0)
    assert got[0] == pytest.approx(1.0) and got[1] == pytest.approx(3.0)
    assert got[2] == 0.0


def test_seminorm_batch_exact_for_vector_paths():
    rng = np.random.default_rng(11)
    values = np.cumsum(rng.standard_normal((12, 257, 2)), axis=1)
    values[3, :, 1] = 0.0  # one coordinate frozen
    for gamma in (0.4, 0.65, 0.9):
        assert_exact(values, 1.0 / 256, gamma)


@pytest.mark.parametrize("dim", [3, 5])
def test_seminorm_batch_exact_for_higher_dimensional_paths(dim):
    # scaled Student-t jumps: coordinates of very different sizes, whose
    # squares are summed in the order np.linalg.norm sums them
    rng = np.random.default_rng(dim)
    jumps = rng.standard_t(1.5, size=(8, 200, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, dim)
    values = np.concatenate([np.zeros((8, 1, dim)), np.cumsum(jumps, axis=1)], axis=1)
    for gamma in (0.4, 0.9):
        assert_exact(values, 1.0 / 200, gamma)


def test_seminorm_batch_non_finite_values_keep_their_meaning():
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.standard_normal((6, 65)), axis=1)
    values[1, 40] = np.nan
    values[2, 7] = np.inf
    values[3, 10:] = np.inf  # inf - inf at lags within the run: the scan sees a nan
    values[4, 20] = -np.inf
    values[5, [10, 30]] = np.inf  # a nan only at lag 20, after other lags gave inf
    with np.errstate(invalid="ignore"):
        got = assert_exact(values, 1.0 / 64, 0.65)
    assert np.isfinite(got[0])
    assert np.isnan(got[1]) and got[2] == np.inf and np.isnan(got[3]) and got[4] == np.inf
    assert np.isnan(got[5])
    with np.errstate(invalid="ignore"):
        assert np.isnan(seminorm(values[1], 0.65))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=200),
    dim=st.sampled_from([1, 2]),
    gamma=st.floats(min_value=0.05, max_value=1.0),
    tail=st.floats(min_value=0.5, max_value=3.0),
)
def test_seminorm_batch_exact_on_heavy_tailed_walks(seed, n, dim, gamma, tail):
    # Student-t jumps: a few jumps dominate, so maxima sit at scattered lags
    rng = np.random.default_rng(seed)
    jumps = rng.standard_t(tail, size=(6, n, dim))
    values = np.concatenate([np.zeros((6, 1, dim)), np.cumsum(jumps, axis=1)], axis=1)
    assert_exact(values, 1.0 / n, gamma)


def test_seminorm_monotone_in_window(fbm_750_1024):
    # the window [0.25, 0.75] is the slice of grid points 256..768 of n = 1024
    values = fbm_750_1024.values[2, :, 0]
    full = seminorm(values, 0.7)
    inner = seminorm(values[256:769], 0.7, horizon=0.5)
    assert full >= inner


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=-50, max_value=50))
def test_seminorm_absolute_homogeneity(scale):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(33)
    base = seminorm(values, 0.6)
    scaled = seminorm(scale * values, 0.6)
    assert scaled == pytest.approx(abs(scale) * base, rel=1e-12, abs=1e-12)


def test_grid_sup_bounded_by_start_plus_seminorm(fbm_750_1024):
    # sup over [s,t] of |f| <= |f(s)| + seminorm * (t-s)^gamma, exact on the grid
    values = fbm_750_1024.values[3]
    gamma = 0.7
    for (ia, ib) in ((0, 1024), (256, 768), (512, 1024)):  # [0, 1], [0.25, 0.75], [0.5, 1] at n = 1024
        window = values[ia : ib + 1]
        semi = seminorm(window[:, 0], gamma, horizon=(ib - ia) / 1024)
        start = np.linalg.norm(window[0])
        assert np.linalg.norm(window, axis=1).max() <= start + semi * ((ib - ia) / 1024) ** gamma + 1e-12


def test_seminorm_exponent_domain():
    for gamma in (0.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            seminorm(np.linspace(0, 1, 9), gamma)


def test_seminorm_cap():
    with pytest.raises(ResourceError):
        seminorm(np.zeros(8194), 0.5)


# ------------------------------------------------- row blocks of the lag scan


@pytest.mark.parametrize("dim", [1, 2])
def test_seminorm_batch_exact_at_row_block_edges(dim):
    n = 32
    block = analysis._SCAN_VALUES // ((n + 1) * dim)  # rows per scan block
    rng = np.random.default_rng(dim)
    walks = np.cumsum(rng.standard_normal((2 * block + 3, n + 1, dim)), axis=1)
    walks[0, 5] = np.nan  # first block
    walks[block, 9] = np.inf  # second block
    walks[2 * block + 1, 20] = -np.inf  # third block
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        for gamma in (0.3, 0.65, 1.0):
            got = assert_exact(walks[:count], 1.0 / n, gamma)
            assert np.isnan(got[0])
    got = holder_seminorm_batch(walks, 1.0 / n, 0.65)
    assert got[block] == np.inf and got[2 * block + 1] == np.inf


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seminorm_row_block_scan_never_reads_across_rows(dim):
    # Every other row holds huge or non-finite points at its head and tail,
    # so a difference taken across two rows would turn its clean neighbours'
    # maxima into inf or nan.
    n = 32
    block = analysis._SCAN_VALUES // ((n + 1) * dim)
    rng = np.random.default_rng(10 + dim)
    walks = np.cumsum(rng.standard_normal((block + 1, n + 1, dim)), axis=1)
    poison = [1e308, -1e308, np.inf, -np.inf, np.nan]
    for i in range(1, block + 1, 2):
        walks[i, 0] = poison[i % 5]
        walks[i, n] = poison[(i // 5) % 5]
    for count in (block - 1, block, block + 1):
        values = walks[:count]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = holder_seminorm_batch(values, 1.0 / n, 0.65)
        assert np.isfinite(got[::2]).all()
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle subtracts within each row alone
            assert np.array_equal(got, lag_scan_seminorm(values, 1.0 / n, 0.65), equal_nan=True)


def test_seminorm_cross_row_inf_minus_inf_stays_silent():
    # the flat scan subtracts row 0's last point from row 1's first: inf - inf
    values = np.array([[0.0] * 32 + [np.inf], [np.inf] + [0.0] * 32])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = holder_seminorm_batch(values, 1.0 / 32, 0.65)
    assert np.array_equal(got, lag_scan_seminorm(values, 1.0 / 32, 0.65))
    assert (got == np.inf).all()


def test_seminorm_scratch_does_not_grow_with_the_batch():
    rng = np.random.default_rng(3)
    for dim in (1, 2):  # dim 2 also holds the flat squares buffer
        walks = np.cumsum(rng.standard_normal((2048, 513, dim)), axis=1)
        peaks = []
        for count in (512, 2048):
            values = walks[:count]
            tracemalloc.start()
            try:
                best = holder_seminorm_batch(values, 1.0 / 512, 0.65)
                peaks.append(tracemalloc.get_traced_memory()[1] - best.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20, dim


# ------------------------------------------------------ block-level bounds

BOUND_NS = [63, 64, 65, 127, 128, 129, 255, 257, 1024]


def group_max_ratios(values, dt, gamma):
    """(count, groups) largest computed ratio over each lag group's lags."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1] - 1
    out = np.zeros((values.shape[0], -(-n // analysis._LAG_GROUP)))
    for lag in range(1, n + 1):
        diff = values[:, lag:] - values[:, :-lag]
        inc = np.linalg.norm(diff, axis=-1) if diff.ndim == 3 else np.abs(diff)
        g = (lag - 1) // analysis._LAG_GROUP
        np.maximum(out[:, g], inc.max(axis=1) / (lag * dt) ** gamma, out=out[:, g])
    return out


def window_range_bounds(values, dt, gamma, extra=lambda span: 0):
    """Each group's widest exact range over windows of span + extra(span) points, / (lo*dt)^gamma."""
    n = values.shape[1] - 1
    out = np.empty((values.shape[0], -(-n // analysis._LAG_GROUP)))
    series = np.ascontiguousarray(np.moveaxis(values, 1, -1))  # time last, so each window is contiguous
    for g in range(out.shape[1]):
        lo, hi = analysis._LAG_GROUP * g + 1, min(analysis._LAG_GROUP * (g + 1), n)
        # full windows only: a window clipped at the path's edge lies inside a full one
        windows = sliding_window_view(series, min(hi + 1 + extra(hi + 1), n + 1), axis=-1)
        widest = (windows.max(axis=-1) - windows.min(axis=-1)).max(axis=-1)
        if widest.ndim == 2:
            widest = np.linalg.norm(widest, axis=-1)
        out[:, g] = widest / (lo * dt) ** gamma
    return out


def promised_block(span):
    """The block size the bounds promise: the largest power of two <= span // 32, at least 4."""
    b = 4
    while 2 * b <= span // 32:
        b *= 2
    return b


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 17] + BOUND_NS)  # the first ones hold at most a few 4-point blocks
def test_lag_group_bounds_cover_every_ratio_and_stay_within_two_blocks(n, dim):
    rng = np.random.default_rng(n + dim)
    values = np.cumsum(rng.standard_normal((6, n + 1, dim)), axis=1)
    if dim == 1:
        values = values[:, :, 0]
    dt, gamma = 1.0 / n, 0.65
    bounds = analysis._lag_group_bounds(values, dt, gamma)
    assert np.all(bounds >= group_max_ratios(values, dt, gamma))
    # a run of ceil((s-1)/b) + 1 blocks of b points spans fewer than s + 2b points
    looser = window_range_bounds(values, dt, gamma, extra=lambda span: 2 * promised_block(span) - 1)
    assert np.all(bounds <= looser)


@pytest.mark.parametrize("n", [1024, 4096])
def test_lag_group_bounds_scratch_stays_under_two_path_blocks_of_values(n):
    rng = np.random.default_rng(n)
    values = np.cumsum(rng.standard_normal((2 * analysis._PATH_BLOCK, n + 1)), axis=1)
    tracemalloc.start()
    try:
        bounds = analysis._lag_group_bounds(values, 1.0 / n, 0.65)
        scratch = tracemalloc.get_traced_memory()[1] - bounds.nbytes
    finally:
        tracemalloc.stop()
    assert scratch < 2 * analysis._PATH_BLOCK * (n + 1) * 8


@pytest.mark.parametrize("dim", [1, 2])
def test_seminorm_batch_exact_with_non_finite_rows_across_path_blocks(dim):
    block = analysis._PATH_BLOCK
    # the reference norm scan takes over 10 s at n = 1,024 in dim 2
    for n in BOUND_NS if dim == 1 else BOUND_NS[:-1]:
        rng = np.random.default_rng(n)
        walks = np.cumsum(rng.standard_normal((2 * block + 1, n + 1, dim)), axis=1)
        walks[3, n // 2] = np.nan  # first block of paths
        walks[block + 4, n // 3] = np.inf  # second block
        walks[2 * block, 1:] = -np.inf  # third block: -inf - -inf at every lag but n
        with np.errstate(invalid="ignore"):
            got = assert_exact(walks, 1.0 / n, 0.65)
        assert np.isnan(got[3]) and got[block + 4] == np.inf and np.isnan(got[2 * block])
        assert np.isfinite(np.delete(got, [3, block + 4, 2 * block])).all()


def test_lag_group_bounds_prune_almost_as_well_as_exact_window_ranges():
    # Exactness tests cannot see a bound that stops pruning; this counts the
    # path-groups the scan's own settle rule leaves to scan under each bound.
    values = generate_fbm(TimeGrid(1.0, 512), 0.75, 256, seed=5).values[:, :, 0]
    dt, gamma = 1.0 / 512, 0.65
    group_max = group_max_ratios(values, dt, gamma)

    def scanned(bounds):
        best, count = np.zeros(values.shape[0]), 0
        for g, rows in analysis._groups_to_scan(bounds, best):
            count += rows.size
            best[rows] = np.maximum(best[rows], group_max[rows, g])
        return count

    exact = scanned(window_range_bounds(values, dt, gamma))
    assert scanned(analysis._lag_group_bounds(values, dt, gamma)) <= 1.10 * exact


def test_seminorm_batch_zero_ratios_stay_positive_zeros():
    # Subnormal steps with dt = 3: every ratio underflows to zero, and lags
    # 4, 8, ..., 16 see an all-zero difference row, where max(max d, -min d)
    # is -0.0 while |d| is +0.0; the result must be the full scan's +0.0.
    values = np.array([[0.0, 1.0, 2.0, 1.0] * 8 + [0.0]]) * 5e-324
    got = assert_exact(values, 3.0, 1.0)
    assert got[0] == 0.0 and not np.signbit(got[0])
