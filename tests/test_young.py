import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsde import (
    DiscretePath,
    DomainError,
    GridMismatchError,
    TimeGrid,
    generate_fbm,
    generate_wiener,
    holder_seminorm,
    rs_sum,
    sup_norm,
    young_integrate,
    young_love_constant,
    young_love_rhs,
)


def path_from(values, horizon=1.0):
    values = np.asarray(values, dtype=float)
    return DiscretePath(TimeGrid(horizon, len(values) - 1), values)


# --------------------------------------------------------------------- rs_sum


def test_rs_sum_telescopes_for_unit_integrand():
    rng = np.random.default_rng(0)
    h = path_from(np.cumsum(rng.standard_normal(65)) * 0.1)
    g = path_from(np.ones(65))
    expected = h.values[-1, 0] - h.values[0, 0]
    assert rs_sum(g, h) == pytest.approx(expected, rel=1e-12)


def test_rs_sum_hand_computed_left_point():
    # g = h = t on [0,1] with n = 2: 0*0.5 + 0.5*0.5 = 0.25
    t = np.array([0.0, 0.5, 1.0])
    assert rs_sum(path_from(t), path_from(t)) == pytest.approx(0.25)


def test_rs_sum_smooth_analytic_oracle():
    # int_0^1 t^2 d(t^3) = int 3 t^4 dt = 3/5
    n = 2**12
    t = np.linspace(0, 1, n + 1)
    got = rs_sum(path_from(t**2), path_from(t**3))
    assert got == pytest.approx(0.6, abs=1e-3)


def test_rs_sum_vector_integrand():
    t = np.linspace(0, 1, 129)
    g = DiscretePath(TimeGrid(1.0, 128), np.stack([t, 2 * t], axis=1))
    h = path_from(t)
    got = rs_sum(g, h)
    np.testing.assert_allclose(got, [0.5, 1.0], atol=0.01)


def test_rs_sum_window():
    t = np.linspace(0, 1, 9)
    assert rs_sum(path_from(np.ones(9)), path_from(t), 0.25, 0.75) == pytest.approx(0.5)


def test_rs_sum_grid_mismatch():
    g = path_from(np.zeros(9))
    h = path_from(np.zeros(17))
    with pytest.raises(GridMismatchError):
        rs_sum(g, h)


def test_rs_sum_vector_integrator_rejected():
    t = np.linspace(0, 1, 9)
    h = DiscretePath(TimeGrid(1.0, 8), np.stack([t, t], axis=1))
    with pytest.raises(DomainError):
        rs_sum(path_from(t), h)


# ------------------------------------------------------------ young_integrate


def test_young_constant_integrand_exact_at_every_level():
    rng = np.random.default_rng(1)
    h = path_from(np.cumsum(rng.standard_normal(257)) * 0.05)
    g = path_from(np.full(257, 2.5))
    result = young_integrate(g, h, tol=1e-12)
    expected = 2.5 * (h.values[-1, 0] - h.values[0, 0])
    assert result.converged
    for level_value in result.history:
        assert level_value == pytest.approx(expected, rel=1e-12)


def test_young_self_integral_chain_rule_oracle():
    batch = generate_fbm(TimeGrid(1.0, 2**12), 0.75, 8, seed=11)
    for i in range(8):
        z = batch.path(i)
        result = young_integrate(z, z, tol=1e-3, max_level=12)
        oracle = z.values[-1, 0] ** 2 / 2.0
        assert result.converged
        assert result.value == pytest.approx(oracle, rel=1e-3)


def test_young_left_rule_carries_quadratic_variation_deficit():
    # The left-point sum of Z dZ is short of Z(1)^2/2 by half the quadratic
    # variation, ~n^{1-2H}/2; the trapezoid rule telescopes it away exactly.
    batch = generate_fbm(TimeGrid(1.0, 2**10), 0.75, 4, seed=23)
    for i in range(4):
        z = batch.path(i)
        oracle = z.values[-1, 0] ** 2 / 2.0
        deficit = oracle - rs_sum(z, z)
        qv = float(np.sum(np.diff(z.values[:, 0]) ** 2))
        assert deficit == pytest.approx(qv / 2.0, rel=1e-9)


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
    converged = 0
    for i in range(count):
        w1 = DiscretePath(batch.grid, batch.values[i, :, 0])
        w2 = DiscretePath(batch.grid, batch.values[i, :, 1])
        result = young_integrate(w1, w2, tol=tol, max_level=12)
        assert result.converged == (result.error_estimate < tol)
        converged += result.converged
    assert converged <= 20, f"{converged} of {count} independent pairs converged"


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-10, max_value=10))
def test_young_linearity_exact_at_every_level(lam):
    rng = np.random.default_rng(5)
    grid = TimeGrid(1.0, 64)
    g1 = DiscretePath(grid, rng.standard_normal(65))
    g2 = DiscretePath(grid, rng.standard_normal(65))
    h = DiscretePath(grid, np.cumsum(rng.standard_normal(65)) * 0.1)
    combo = DiscretePath(grid, lam * g1.values[:, 0] + g2.values[:, 0])
    lhs = young_integrate(combo, h, max_level=6).history
    r1 = young_integrate(g1, h, max_level=6).history
    r2 = young_integrate(g2, h, max_level=6).history
    for left, a, b in zip(lhs, r1, r2):
        assert left == pytest.approx(lam * a + b, rel=1e-9, abs=1e-9)


def test_young_additivity_over_adjacent_windows():
    batch = generate_fbm(TimeGrid(1.0, 256), 0.75, 2, seed=9)
    z = batch.path(0)
    g = batch.path(1)
    whole = young_integrate(g, z, 0.0, 1.0, max_level=6).value
    left = young_integrate(g, z, 0.0, 0.5, max_level=6).value
    right = young_integrate(g, z, 0.5, 1.0, max_level=6).value
    assert whole == pytest.approx(left + right, rel=1e-9, abs=1e-12)


def test_young_window_divisibility_validation():
    t = np.linspace(0, 1, 13)  # 12 cells: not divisible by 2^3
    p = path_from(t)
    with pytest.raises(DomainError):
        young_integrate(p, p, max_level=3)
    result = young_integrate(p, p, max_level=2)
    assert result.refinement_level == 2


def test_young_error_estimate_is_last_gap():
    batch = generate_fbm(TimeGrid(1.0, 256), 0.75, 2, seed=13)
    result = young_integrate(batch.path(0), batch.path(1), max_level=8)
    gap = abs(result.history[-1] - result.history[-2])
    assert result.error_estimate == pytest.approx(gap)
    assert result.value == result.history[-1]


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
    for i in range(40):
        g, h = g_batch.path(i), h_batch.path(i)
        value = young_integrate(g, h, max_level=8).value
        bound = young_love_rhs(
            sup_norm(g),
            holder_seminorm(g, exponent=mu),
            holder_seminorm(h, exponent=mu),
            0.0,
            1.0,
            mu,
            mu,
        )
        assert abs(value) <= bound
