import dataclasses
import math

import numpy as np
import pytest

from mixedsde import (
    DomainError,
    DriverSpec,
    EstimationError,
    MomentTarget,
    PathBatch,
    TimeGrid,
    fernique_tail_check,
    model_zoo,
    moment_estimate,
    solve_coupled,
    solve_model,
    exp_moment_exponent_bound,
    young_integrate,
    young_love_constant,
    young_love_rhs,
)
from mixedsde import parallel
from mixedsde.moments import _estimate_from_sups, _level_ratio, _sorted_median, grid_stability_tables


def constant_model(value=2.0):
    return model_zoo(
        "linear_mixed", drift_matrix=0.0, drift_offset=0.0, wiener_matrix=0.0,
        wiener_offset=0.0, rough_matrix=0.0, rough_offset=0.0, initial_value=value,
    )


def pure_driver_model():
    """dX = dZ with X0 = 0: the solution is the fBm driver itself."""
    return model_zoo(
        "linear_mixed", drift_matrix=0.0, drift_offset=0.0, wiener_matrix=0.0,
        wiener_offset=0.0, rough_matrix=0.0, rough_offset=1.0, initial_value=0.0,
    )


# ----------------------------------------------------------------- estimators


def test_constant_model_moments_are_exact_with_zero_variance():
    out = solve_model(constant_model(2.0), TimeGrid(1.0, 32), 300, seed=1)
    for p in (1.0, 2.0, 3.5):
        est = moment_estimate(out, MomentTarget("sup", p=p))
        assert est.estimate == pytest.approx(2.0**p, rel=1e-12)
        assert est.standard_error <= 1e-12 * est.estimate  # zero at double precision
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.blowup_count == 0


def test_driver_sup_second_moment_band():
    # E sup^2 of the rough driver itself: at least E Z(1)^2 = 1, and the
    # simulation study places it near 1.2 for H = 0.75
    out = solve_model(pure_driver_model(), TimeGrid(1.0, 512), 10_000, seed=13)
    est = moment_estimate(out, MomentTarget("sup", p=2.0))
    assert 1.0 <= est.estimate <= 2.5
    assert est.estimate == pytest.approx(1.2, abs=4 * est.standard_error + 0.05)


def test_wiener_sup_reflection_principle_oracles():
    # E sup |W| = sqrt(pi/2); one-sided E sup W = sqrt(2/pi). The grid sup
    # undershoots the continuous one by O(sqrt(dt)), so the band is one-sided.
    model = model_zoo(
        "linear_mixed", drift_matrix=0.0, drift_offset=0.0, wiener_matrix=0.0,
        wiener_offset=1.0, rough_matrix=0.0, rough_offset=0.0, initial_value=0.0,
    )
    out = solve_model(model, TimeGrid(1.0, 4096), 4000, seed=3)
    est = moment_estimate(out, MomentTarget("sup", p=1.0))
    se = est.standard_error
    assert abs(est.estimate - math.sqrt(math.pi / 2)) < 4 * se + 0.02
    one_sided = out.paths.values[:, :, 0].max(axis=1)
    oracle = math.sqrt(2 / math.pi)
    assert oracle - 0.03 < one_sided.mean() <= oracle + 4 * one_sided.std(ddof=1) / 63


def test_exp_moment_tends_to_one_for_small_c():
    out = solve_model(pure_driver_model(), TimeGrid(1.0, 128), 500, seed=5)
    est = moment_estimate(out, MomentTarget("exp", c=1e-9, gamma=1.0))
    assert est.estimate == pytest.approx(1.0, abs=1e-8)
    assert est.standard_error < 1e-9
    assert not est.unstable


def test_exp_moment_above_gaussian_square_flags_unstable():
    # exp tails of a Gaussian sup support gamma < 2 only; gamma = 2.5 must
    # trip the tail-dominance diagnostic at desk scale
    out = solve_model(pure_driver_model(), TimeGrid(1.0, 512), 10_000, seed=13)
    est = moment_estimate(out, MomentTarget("exp", c=1.0, gamma=2.5))
    assert est.unstable
    assert est.tail_dominance > 0.2


def test_finite_sample_jensen_inequality():
    out = solve_model(model_zoo("bounded_trig"), TimeGrid(1.0, 256), 400, seed=7)
    sups = out.sup_norms()
    assert not np.isnan(sups).any()
    c, gamma = 1.0, 1.0
    est = moment_estimate(out, MomentTarget("exp", c=c, gamma=gamma))
    assert est.estimate >= math.exp(c * np.mean(sups**gamma)) * (1 - 1e-12)


def test_lp_norms_nondecreasing_in_p():
    out = solve_model(model_zoo("linear_mixed", initial_value=1.5), TimeGrid(1.0, 256), 400, seed=8)
    # sup >= |X0| = 1.5 >= 1 path-wise, so raw moments are monotone too
    def moment(p):
        return moment_estimate(out, MomentTarget("sup", p=p)).estimate

    raw = [moment(p) for p in (1.0, 2.0, 3.0, 4.0)]
    assert all(b >= a for a, b in zip(raw, raw[1:]))
    norms = [moment(p) ** (1 / p) for p in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_tail_dominance_bounds_and_target_labels():
    out = solve_model(model_zoo("linear_mixed"), TimeGrid(1.0, 128), 200, seed=9)
    est = moment_estimate(out, MomentTarget("sup", p=2.0))
    assert 0.0 <= est.tail_dominance <= 1.0
    assert "p=2" in est.target
    est2 = moment_estimate(out, MomentTarget("exp", c=0.5, gamma=1.25))
    assert "c=0.5" in est2.target and "gamma=1.25" in est2.target


def test_one_sample_reports_no_spread():
    # one surviving path measures no spread: a zero SE and a zero-width CI would be false precision
    out = solve_model(model_zoo("linear_mixed"), TimeGrid(1.0, 16), 1, seed=9)
    for target in (MomentTarget("sup", p=2.0), MomentTarget("exp", c=0.5, gamma=1.0)):
        est = moment_estimate(out, target)
        assert est.sample_count == 1 and math.isfinite(est.estimate)
        assert math.isnan(est.standard_error) and math.isnan(est.ci_low) and math.isnan(est.ci_high)


def test_finite_samples_summing_past_the_largest_double_are_unstable():
    # each sample is finite, so none overflows, but their sum passes the largest double
    est = _estimate_from_sups(np.array([1e308, 1e308]), MomentTarget("sup", p=1.0))
    assert est.overflow_count == 0 and est.sample_count == 2 and est.blowup_count == 0
    assert est.estimate == est.standard_error == est.ci_low == est.ci_high == math.inf
    assert est.unstable


def test_all_paths_blown_raises_estimation_error():
    import mixedsde

    def quad(t, x):
        return x * x

    model = mixedsde.ModelSpec(
        name="explode", initial_value=[3.0], horizon=1.0,
        drift=mixedsde.CoefficientField("quad", quad),
        wiener=None,
        rough=model_zoo("linear_mixed", rough_matrix=0.0, rough_offset=0.0).rough,
        driver=mixedsde.DriverSpec(0, 1, (0.75,)),
    )
    out = solve_model(model, TimeGrid(1.0, 512), 50, seed=10)
    assert out.blowup_count == 50
    sups = out.sup_norms()
    assert sups.shape == (50,) and sups.dtype == np.float64 and np.isnan(sups).all()
    with pytest.raises(EstimationError, match="every path blew up"):
        _estimate_from_sups(sups, MomentTarget("sup", p=2.0))
    with pytest.raises(EstimationError, match="every path blew up"):
        moment_estimate(out, MomentTarget("sup", p=2.0))


def test_moment_target_validation():
    with pytest.raises(DomainError):
        MomentTarget("sup", p=-1.0)
    with pytest.raises(DomainError):
        MomentTarget("exp", c=1.0)
    with pytest.raises(DomainError):
        MomentTarget("median")


FLAT = PathBatch(TimeGrid(1.0, 4), np.zeros((1, 5)))


@pytest.mark.parametrize("call", [
    lambda: MomentTarget("sup", p=math.nan),
    lambda: MomentTarget("exp", c=math.nan, gamma=1.0),
    lambda: MomentTarget("exp", c=1.0, gamma=math.nan),
    lambda: young_integrate(FLAT, FLAT, tol=math.nan),
    lambda: young_love_constant(math.nan, math.nan),
    lambda: young_love_rhs(math.nan, 1.0, 1.0, 0.0, 1.0, 0.75, 0.75),
    lambda: young_love_rhs(1.0, 1.0, 1.0, 0.0, math.nan, 0.75, 0.75),
    lambda: young_love_rhs(1.0, math.nan, 1.0, 0.0, 1.0, 0.75, 0.75),
    lambda: young_love_rhs(1.0, 1.0, 1.0, math.nan, 1.0, 0.75, 0.75),
], ids=["sup-p", "exp-c", "exp-gamma", "young-tol", "young-love-constant", "young-love-rhs-sup", "young-love-rhs-b",
        "young-love-rhs-holder", "young-love-rhs-a"])
def test_library_range_checks_refuse_nan(call):
    # nan compares false with every bound, so each check reads `not x > 0`
    with pytest.raises(DomainError):
        call()


# ------------------------------------------------------------ stability study


def test_level_ratio_zero_rule():
    assert _level_ratio(2.0, 1.0) == 0.5
    assert _level_ratio(0.0, 1.0) == math.inf  # escaping from zero
    assert math.isnan(_level_ratio(0.0, 0.0))  # the estimate did not move
    assert math.isnan(_level_ratio(math.nan, 1.0))


def test_constant_model_stability_ratios_exactly_one():
    (table,) = grid_stability_tables(
        constant_model(2.0), [MomentTarget("sup", p=2.0)], [64, 128, 256], 200, seed=11
    )
    assert table.ratios == (1.0, 1.0)
    assert [e.blowup_count for e in table.estimates] == [0, 0, 0]


def test_stability_study_is_reproducible_and_worker_invariant():
    model = model_zoo("linear_mixed")
    kwargs = dict(targets=[MomentTarget("sup", p=2.0)], levels=[128, 256], paths=400, seed=12)
    (a,) = grid_stability_tables(model, **kwargs)
    (b,) = grid_stability_tables(model, **kwargs)
    (c,) = grid_stability_tables(model, workers=3, **kwargs)
    for x, y in ((a, b), (a, c)):
        assert [e.estimate for e in x.estimates] == [e.estimate for e in y.estimates]


def test_stability_levels_validation():
    model = constant_model()
    for levels in ([256, 128], [100, 200], [128, 128]):
        with pytest.raises(DomainError):
            grid_stability_tables(model, [MomentTarget("sup", p=1.0)], levels, 100, seed=1)


def test_multi_target_tables_share_paths():
    model = model_zoo("linear_mixed")
    targets = [MomentTarget("sup", p=1.0), MomentTarget("sup", p=2.0)]
    tables = grid_stability_tables(model, targets, [128, 256], 300, seed=14)
    singles = [
        grid_stability_tables(model, [t], [128, 256], 300, seed=14)[0] for t in targets
    ]
    for multi, single in zip(tables, singles):
        assert [e.estimate for e in multi.estimates] == [e.estimate for e in single.estimates]


def test_quadratic_drift_negative_control_shows_blowups():
    (table,) = grid_stability_tables(
        model_zoo("quadratic_control"), [MomentTarget("sup", p=2.0)], [256, 1024], 300, seed=9
    )
    in_band = all(0.8 <= r <= 1.25 for r in table.ratios)
    assert any(e.blowup_count for e in table.estimates) or not in_band


# --------------------------------------------------------------- fernique


def test_fernique_fit_mode_negative_slope():
    report = fernique_tail_check(0.75, 0.65, TimeGrid(1.0, 256), 4000, seed=5)
    assert report.mode == "fit"
    assert report.slope < 0
    assert report.r_squared > 0.9


def test_fernique_fit_does_not_depend_on_the_horizon_scale():
    # The seminorm scales as horizon^(H - mu), so the fitted R^2 and the
    # slope times horizon^(2(H - mu)) are scale-free; a fit on raw x^2 lost
    # the x^2 column (R^2 0, slope about 0) at 1e-100 and gave R^2 0.89 at 1e150.
    hurst, mu = 0.75, 0.6
    base = fernique_tail_check(hurst, mu, TimeGrid(1.0, 16), 200, seed=1)
    for horizon in (1e-20, 1e-100, 1e-200, 1e150, 1e300):
        report = fernique_tail_check(hurst, mu, TimeGrid(horizon, 16), 200, seed=1)
        assert report.r_squared == pytest.approx(base.r_squared, rel=1e-9), horizon
        scaled = report.slope * horizon ** (2 * (hurst - mu))
        assert scaled == pytest.approx(base.slope, rel=1e-9), horizon


def test_fernique_wiener_control():
    report = fernique_tail_check(0.5, 0.4, TimeGrid(1.0, 256), 4000, seed=6)
    assert report.mode == "fit"
    assert report.slope < 0
    assert report.r_squared > 0.9


def test_fernique_above_hurst_reports_growth_and_skips_fit():
    report = fernique_tail_check(0.75, 0.85, TimeGrid(1.0, 256), 500, seed=7)
    assert report.mode == "growth"
    assert math.isnan(report.slope)
    assert report.growth_ratio > 1.05  # seminorm grows under refinement


def test_fernique_growth_mode_refuses_an_odd_grid_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("paths synthesised for a grid that growth mode cannot halve")

    monkeypatch.setattr(parallel, "map_paths", fail)
    with pytest.raises(DomainError, match="stride 2 does not divide step_count 15"):
        fernique_tail_check(0.75, 0.8, TimeGrid(1.0, 15), 200, seed=1)


@pytest.mark.parametrize("size", [1, 2, 7, 200, 201])
def test_sorted_median_is_np_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    samples = [rng.standard_normal(size), rng.standard_exponential(size) * 1e300, np.full(size, -0.0)]
    if size > 1:
        samples.append(np.r_[rng.standard_normal(size - 1), np.nan])  # np.sort puts the nan last
        samples.append(np.r_[np.zeros(size - 1), -5e-324])  # at size 2 the mean rounds to -0.0
    for sample in samples:
        ordered = np.sort(sample)
        want = np.median(sample)
        got = _sorted_median(ordered)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(want).tobytes(), (sample, got, want)


def test_fernique_input_validation():
    with pytest.raises(DomainError):
        fernique_tail_check(0.75, 0.65, TimeGrid(1.0, 64), 50, seed=1)
    with pytest.raises(DomainError):
        fernique_tail_check(0.75, 1.2, TimeGrid(1.0, 64), 500, seed=1)


# --------------------------------------------------------------- boundary


def exp_targets(gammas, c=1.0):
    return [MomentTarget("exp", c=c, gamma=g) for g in gammas]


def test_boundary_study_rows_and_threshold():
    # the boundary command's rows: one stability level, one exp target per gamma
    model = model_zoo("bounded_trig")
    tables = grid_stability_tables(model, exp_targets([0.5, 1.0, 3.9]), [256], 2000, seed=7)
    threshold = exp_moment_exponent_bound(model.driver.holder_order)
    assert threshold == pytest.approx(exp_moment_exponent_bound(0.74))
    estimates = [table.estimates[0] for table in tables]
    assert len(estimates) == 3
    assert not estimates[0].unstable
    assert estimates[-1].unstable or estimates[-1].tail_dominance > 0.2


def test_boundary_single_gamma_degenerate_input():
    (table,) = grid_stability_tables(model_zoo("bounded_trig"), exp_targets([1.0]), [128], 1000, seed=8)
    assert len(table.estimates) == 1


def test_boundary_rejects_a_non_dyadic_grid():
    with pytest.raises(DomainError, match="dyadic"):
        grid_stability_tables(model_zoo("bounded_trig"), exp_targets([1.0]), [12], 100, seed=1)


# --------------------------------------------------------------- coupled drivers


def test_shared_drivers_with_different_hurst_rejected_everywhere():
    sens = model_zoo("malliavin_linearized")
    assert sens.share_drivers
    with pytest.raises(DomainError, match="shared drivers"):
        dataclasses.replace(sens, driver=DriverSpec(1, 1, (0.9,)))
    other_base = dataclasses.replace(sens.base, driver=DriverSpec(1, 1, (0.9,)))
    with pytest.raises(DomainError, match="shared drivers"):
        dataclasses.replace(sens, base=other_base)


def test_coupled_horizon_follows_the_base():
    # the level ladder solves both stages on one grid, the base's, so a coupled stage holds no horizon of its own
    price = model_zoo("stochvol")
    with pytest.raises(TypeError):
        dataclasses.replace(price, horizon=2.0)
    assert dataclasses.replace(price, base=dataclasses.replace(price.base, horizon=2.0)).horizon == 2.0
    price = model_zoo("stochvol", horizon=4.0)
    assert price.horizon == price.base.horizon == 4.0
