import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsde import (
    DomainError,
    GridMismatchError,
    PathBatch,
    TimeGrid,
    generate_fbm,
    generate_wiener,
    holder_seminorm_batch,
    model_zoo,
    rs_sum,
    solve_model,
    young_integrate,
    young_love_constant,
    young_love_rhs,
)


def path_from(values, horizon=1.0):
    """One path, (n+1,) or (n+1, dim) values on [0, horizon], as a batch of one."""
    values = np.asarray(values, dtype=float)
    return PathBatch(TimeGrid(horizon, len(values) - 1), values[None])


# ------------------------------------------------------ per-path reference
#
# The sums as they ran one path at a time, on a C-ordered (n+1, dim) integrand
# and an (n+1,) integrator, with the vector gap taken by np.linalg.norm. The
# batch API must give these bits for every path, in any storage layout.


def reference_rs_sum(gv, hv):
    value = gv[:-1].T @ (hv[1:] - hv[:-1])
    return float(value[0]) if gv.shape[1] == 1 else value


def reference_young(gv, hv, tol, depth):
    """(history, error_estimate, converged) of the trapezoid ladder on one path."""
    history = []
    for level in range(depth + 1):
        s = 2 ** (depth - level)
        value = (0.5 * (gv[:-s:s] + gv[s::s])).T @ (hv[s::s] - hv[:-s:s])
        history.append(float(value[0]) if gv.shape[1] == 1 else value)
    if gv.shape[1] == 1:
        gap = abs(history[-1] - history[-2])
    else:
        gap = float(np.linalg.norm(history[-1] - history[-2]))
    return history, gap, gap < tol


def _time_major(values):
    return np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)


def _path_major(values):
    return np.ascontiguousarray(values)


def assert_matches_reference(g, h, tol, depth):
    result = young_integrate(g, h, tol=tol)
    assert len(result.history) == depth + 1
    left = rs_sum(g, h)
    assert result.value.shape == left.shape == ((g.count,) if g.dim == 1 else (g.count, g.dim))
    assert result.converged.shape == result.error_estimate.shape == (g.count,)
    for i in range(g.count):
        gv, hv = np.ascontiguousarray(g.values[i]), np.ascontiguousarray(h.values[i, :, 0])
        history, gap, converged = reference_young(gv, hv, tol, depth)
        for level, want in zip(result.history, history):
            assert np.array_equal(level[i], want)
        assert result.error_estimate[i] == gap and result.converged[i] == converged
        assert np.array_equal(left[i], reference_rs_sum(gv, hv))
    assert np.array_equal(result.value, result.history[-1])


@pytest.mark.parametrize("layout", [_path_major, _time_major])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
def test_batch_sums_match_the_per_path_reference_bit_for_bit(count, dim, layout):
    # 64 paths go through each matmul block; counts straddle the block edges
    grid = TimeGrid(1.0, 256)
    h = generate_fbm(grid, 0.75, count, seed=3)
    g_values = np.concatenate([generate_fbm(grid, 0.75, count, seed=10 + c).values for c in range(dim)], axis=2)
    g = PathBatch(grid, layout(g_values))
    h = PathBatch(grid, layout(h.values))
    assert_matches_reference(g, h, tol=1e-3, depth=8)


def test_batch_sums_match_the_reference_on_solver_output():
    # solve_model's rough driver is a view of time-major storage
    model = model_zoo("geometric_mixed", mu=0.1, sigma_w=0.2, sigma_b=0.3)
    out = solve_model(model, TimeGrid(1.0, 512), count=70, seed=42)
    assert not out.rough.values.flags.c_contiguous
    assert_matches_reference(out.paths, out.rough, tol=1e-3, depth=9)
    assert_matches_reference(out.rough, out.rough, tol=1e-3, depth=9)


def test_young_scratch_does_not_grow_with_the_batch():
    walks = generate_fbm(TimeGrid(1.0, 1024), 0.75, 2048, seed=5)
    peaks = []
    for count in (512, 2048):
        batch = PathBatch(walks.grid, walks.values[:count])
        tracemalloc.start()
        try:
            result = young_integrate(batch, batch, tol=1e-3)
            kept = sum(level.nbytes for level in result.history) + result.error_estimate.nbytes
            peaks.append(tracemalloc.get_traced_memory()[1] - kept - result.converged.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


# --------------------------------------------------------------------- rs_sum


def test_rs_sum_telescopes_for_unit_integrand():
    rng = np.random.default_rng(0)
    h = path_from(np.cumsum(rng.standard_normal(65)) * 0.1)
    g = path_from(np.ones(65))
    expected = h.values[0, -1, 0] - h.values[0, 0, 0]
    assert rs_sum(g, h)[0] == pytest.approx(expected, rel=1e-12)


def test_rs_sum_hand_computed_left_point():
    # g = h = t on [0,1] with n = 2: 0*0.5 + 0.5*0.5 = 0.25
    t = np.array([0.0, 0.5, 1.0])
    assert rs_sum(path_from(t), path_from(t))[0] == pytest.approx(0.25)


def test_rs_sum_smooth_analytic_oracle():
    # int_0^1 t^2 d(t^3) = int 3 t^4 dt = 3/5
    n = 2**12
    t = np.linspace(0, 1, n + 1)
    got = rs_sum(path_from(t**2), path_from(t**3))[0]
    assert got == pytest.approx(0.6, abs=1e-3)


def test_rs_sum_vector_integrand():
    t = np.linspace(0, 1, 129)
    g = path_from(np.stack([t, 2 * t], axis=1))
    h = path_from(t)
    got = rs_sum(g, h)
    np.testing.assert_allclose(got, [[0.5, 1.0]], atol=0.01)


def test_rs_sum_window():
    # the window [0.25, 0.75] of the n = 8 grid is the slice of points 2..6
    t = np.linspace(0, 1, 9)
    assert rs_sum(path_from(np.ones(5), 0.5), path_from(t[2:7], 0.5))[0] == pytest.approx(0.5)


def test_rs_sum_grid_mismatch():
    g = path_from(np.zeros(9))
    h = path_from(np.zeros(17))
    with pytest.raises(GridMismatchError):
        rs_sum(g, h)


def test_rs_sum_vector_integrator_rejected():
    t = np.linspace(0, 1, 9)
    h = path_from(np.stack([t, t], axis=1))
    with pytest.raises(DomainError):
        rs_sum(path_from(t), h)


def test_batches_of_different_counts_rejected():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(DomainError):
        rs_sum(PathBatch(grid, np.zeros((2, 9))), PathBatch(grid, np.zeros((3, 9))))
    with pytest.raises(DomainError):
        young_integrate(PathBatch(grid, np.zeros((2, 9))), PathBatch(grid, np.zeros((3, 9))))


# ------------------------------------------------------------ young_integrate


def test_young_constant_integrand_exact_at_every_level():
    rng = np.random.default_rng(1)
    h = path_from(np.cumsum(rng.standard_normal(257)) * 0.05)
    g = path_from(np.full(257, 2.5))
    result = young_integrate(g, h, tol=1e-12)
    expected = 2.5 * (h.values[0, -1, 0] - h.values[0, 0, 0])
    assert result.converged.all()
    for level_value in result.history:
        assert level_value[0] == pytest.approx(expected, rel=1e-12)


def test_young_self_integral_chain_rule_oracle():
    batch = generate_fbm(TimeGrid(1.0, 2**12), 0.75, 8, seed=11)
    result = young_integrate(batch, batch, tol=1e-3)
    oracle = batch.values[:, -1, 0] ** 2 / 2.0
    assert result.converged.all()
    np.testing.assert_allclose(result.value, oracle, rtol=1e-3)


def test_young_left_rule_carries_quadratic_variation_deficit():
    # The left-point sum of Z dZ is short of Z(1)^2/2 by half the quadratic
    # variation, ~n^{1-2H}/2; the trapezoid rule telescopes it away exactly.
    batch = generate_fbm(TimeGrid(1.0, 2**10), 0.75, 4, seed=23)
    oracle = batch.values[:, -1, 0] ** 2 / 2.0
    deficit = oracle - rs_sum(batch, batch)
    qv = np.sum(np.diff(batch.values[:, :, 0], axis=1) ** 2, axis=1)
    np.testing.assert_allclose(deficit, qv / 2.0, rtol=1e-9)


def test_young_independent_wiener_pair_does_not_converge():
    # For independent Wiener paths on n = 2**12 cells of width h, the last
    # refinement moves the trapezoid sum by S = sum over the n/2 coarse cells
    # of (a*d - b*c)/2, with a, b the two halves' increments of w1 and c, d
    # those of w2, all N(0, h). So Var S = (n/2) * h**2 / 2 = 2**-14, S is
    # normal to within an excess kurtosis of 3/(n/2), and a path converges at
    # tol 1e-3 with p = erf(1e-3 / (2**-7 * sqrt 2)) = 0.102. Over 64 paths
    # the count that converges is Binomial(64, p), mean 6.5; more than 20
    # has probability 7.6e-7, which is this test's false-failure rate. A
    # pair whose sums converge, such as a self-integral, would fail it.
    n, count, tol = 2**12, 64, 1e-3
    p = math.erf(tol / (math.sqrt(n / 4) / n * math.sqrt(2)))
    assert p == pytest.approx(0.10185, abs=1e-5)
    false_failure = sum(math.comb(count, k) * p**k * (1 - p) ** (count - k) for k in range(21, count + 1))
    assert false_failure < 1e-6
    batch = generate_wiener(TimeGrid(1.0, n), 2, count, seed=3)
    w1 = PathBatch(batch.grid, batch.values[:, :, 0])
    w2 = PathBatch(batch.grid, batch.values[:, :, 1])
    result = young_integrate(w1, w2, tol=tol)
    assert np.array_equal(result.converged, result.error_estimate < tol)
    converged = int(result.converged.sum())
    assert converged <= 20, f"{converged} of {count} independent pairs converged"


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-10, max_value=10))
def test_young_linearity_exact_at_every_level(lam):
    rng = np.random.default_rng(5)
    grid = TimeGrid(1.0, 64)
    g1 = PathBatch(grid, rng.standard_normal((1, 65)))
    g2 = PathBatch(grid, rng.standard_normal((1, 65)))
    h = PathBatch(grid, np.cumsum(rng.standard_normal((1, 65)), axis=1) * 0.1)
    combo = PathBatch(grid, lam * g1.values + g2.values)
    lhs = young_integrate(combo, h).history
    r1 = young_integrate(g1, h).history
    r2 = young_integrate(g2, h).history
    for left, a, b in zip(lhs, r1, r2):
        assert left[0] == pytest.approx(lam * a[0] + b[0], rel=1e-9, abs=1e-9)


def test_young_additivity_over_adjacent_windows():
    # [0, 1/2] and [1/2, 1] are the slices of points 0..128 and 128..256 on sub-grids
    batch = generate_fbm(TimeGrid(1.0, 256), 0.75, 2, seed=9)
    half = TimeGrid(0.5, 128)

    def integral(grid, points):
        z = PathBatch(grid, batch.values[:1, points])
        g = PathBatch(grid, batch.values[1:, points])
        return young_integrate(g, z).value[0]

    whole = integral(batch.grid, slice(None))
    left = integral(half, slice(0, 129))
    right = integral(half, slice(128, 257))
    assert whole == pytest.approx(left + right, rel=1e-9, abs=1e-12)


def test_young_ladder_depth_is_the_grids():
    # 12 cells = 4 * 3: the ladder strides 4, 2, 1; an odd cell count has no second level
    p = path_from(np.linspace(0, 1, 13))
    result = young_integrate(p, p)
    assert len(result.history) == 3
    odd = path_from(np.linspace(0, 1, 14))
    with pytest.raises(DomainError, match="needs at least two dyadic levels"):
        young_integrate(odd, odd)


def test_young_error_estimate_is_last_gap():
    batch = generate_fbm(TimeGrid(1.0, 256), 0.75, 2, seed=13)
    g, h = (PathBatch(batch.grid, batch.values[i : i + 1]) for i in (0, 1))
    result = young_integrate(g, h)
    gap = abs(result.history[-1] - result.history[-2])
    np.testing.assert_allclose(result.error_estimate, gap)
    assert np.array_equal(result.value, result.history[-1])


# ----------------------------------------------------------------- Young-Love


def test_young_love_constant_value():
    assert young_love_constant(0.75, 0.75) == pytest.approx(4.414213562373095)
    with pytest.raises(DomainError):
        young_love_constant(0.5, 0.5)


def test_young_love_rhs_zero_for_constant_integrator():
    assert young_love_rhs(3.0, 1.0, 0.0, 0.0, 1.0, 0.75, 0.75) == 0.0


def test_young_love_rhs_unit_plugin_equals_constant():
    got = young_love_rhs(1.0, 0.0, 1.0, 0.0, 1.0, 0.75, 0.75)
    assert got == pytest.approx(young_love_constant(0.75, 0.75))


def test_young_love_rhs_rejects_bad_inputs():
    with pytest.raises(DomainError):
        young_love_rhs(1.0, 1.0, 1.0, 1.0, 0.5, 0.75, 0.75)  # b <= a
    with pytest.raises(DomainError):
        young_love_rhs(-1.0, 1.0, 1.0, 0.0, 1.0, 0.75, 0.75)


def test_young_love_bound_holds_on_random_rough_pairs():
    # one-sided bound with the declared constant, grid norms on both sides
    grid = TimeGrid(1.0, 256)
    mu = 0.74
    g_batch = generate_fbm(grid, 0.75, 40, seed=41)
    h_batch = generate_fbm(grid, 0.75, 40, seed=42)
    values = young_integrate(g_batch, h_batch).value
    sups = np.abs(g_batch.values[:, :, 0]).max(axis=1)
    g_hol = holder_seminorm_batch(g_batch.values, grid.dt, mu)
    h_hol = holder_seminorm_batch(h_batch.values, grid.dt, mu)
    for i in range(40):
        bound = young_love_rhs(sups[i], g_hol[i], h_hol[i], 0.0, 1.0, mu, mu)
        assert abs(values[i]) <= bound
