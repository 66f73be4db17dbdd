import tracemalloc
import weakref

import numpy as np
import pytest

from mixedsde import (
    CoefficientField,
    DomainError,
    DriverSpec,
    GeometricParams,
    GridMismatchError,
    ModelSpec,
    TimeGrid,
    closed_form_geometric_batch,
    euler_mixed,
    generate_drivers,
    geometric_convergence_study,
    model_zoo,
    solve_coupled,
    solve_model,
)
from mixedsde import solver
from mixedsde.solver import euler_coupled, solve_levels, stage_drivers


def constant_field(value, dim=1, columns=0):
    value = float(value)

    def evaluate(t, x):
        if columns:
            return np.full((len(x), dim, columns), value)
        return np.full((len(x), dim), value)

    return CoefficientField(f"const-{value}", "state", dim, columns, evaluate)


def simple_model(a=0.0, b=0.0, c=0.0, x0=1.0, horizon=1.0):
    return ModelSpec(
        name="simple",
        state_dim=1,
        initial_value=[x0],
        horizon=horizon,
        drift=constant_field(a),
        wiener=constant_field(b, columns=1),
        rough=constant_field(c, columns=1),
        driver=DriverSpec(1, 1, (0.75,)),
    )


# --------------------------------------------------------------------- euler


def test_zero_coefficients_keep_initial_value():
    grid = TimeGrid(1.0, 64)
    out = solve_model(simple_model(), grid, 20, seed=1)
    assert np.all(out.paths.values == 1.0)
    assert out.blowup_count == 0


def test_unit_drift_reproduces_time_exactly():
    grid = TimeGrid(1.0, 128)
    out = solve_model(simple_model(a=1.0, x0=0.0), grid, 5, seed=2)
    for i in range(5):
        np.testing.assert_allclose(out.paths.values[i, :, 0], grid.points, atol=1e-12)


def test_dimension_mismatch_raises():
    grid = TimeGrid(1.0, 16)
    model = simple_model()
    w, z = generate_drivers(model.driver, grid, 4, seed=3)
    with pytest.raises(DomainError):
        euler_mixed(model, grid, w, None)
    other = TimeGrid(1.0, 32)
    w2, z2 = generate_drivers(model.driver, other, 4, seed=3)
    with pytest.raises(GridMismatchError):
        euler_mixed(model, grid, w2, z2)


def test_geometric_euler_tracks_closed_form():
    params = GeometricParams(1.0, 0.1, 0.2, 0.3)
    model = model_zoo("geometric_mixed", mu=0.1, sigma_w=0.2, sigma_b=0.3)
    grid = TimeGrid(1.0, 2**12)
    out = solve_model(model, grid, 100, seed=42)
    exact = closed_form_geometric_batch(params, out.wiener, out.rough)
    rel = np.abs(out.paths.values[:, -1, 0] - exact.values[:, -1, 0]) / exact.values[:, -1, 0]
    assert rel.mean() < 0.01


def test_closed_form_reductions():
    grid = TimeGrid(1.0, 64)
    w, z = generate_drivers(DriverSpec(1, 1, (0.75,)), grid, 1, seed=5)
    flat = closed_form_geometric_batch(GeometricParams(2.0, 0.3, 0.0, 0.0), w, z).values[0, :, 0]
    np.testing.assert_allclose(flat, 2.0 * np.exp(0.3 * grid.points))
    gbm = closed_form_geometric_batch(GeometricParams(1.0, 0.0, 0.5, 0.0), w, z).values[0, :, 0]
    expected = np.exp(-0.125 * grid.points + 0.5 * w.values[0, :, 0])
    np.testing.assert_allclose(gbm, expected)


def test_malliavin_sensitivity_tracks_price_ratio():
    base, sens = model_zoo("malliavin_linearized", mu=0.1, sigma_w=0.2, sigma_b=0.3)
    grid = TimeGrid(1.0, 512)
    out_x, out_y = solve_coupled(base, sens, grid, seed=7, count=30)
    # the linearized equation shares the linear closed form: Y_t/Y_0 == S_t/S_0
    ratio = out_y.paths.values[:, :, 0] / out_x.paths.values[:, :, 0]
    assert np.abs(ratio / ratio[:, :1] - 1.0).max() < 1e-9


def test_stochvol_with_frozen_volatility_reduces_to_geometric():
    vol, price = model_zoo("stochvol", rho_power=0.2)
    frozen_vol = model_zoo(
        "bounded_trig", state_dim=2, drift_amp=0.0, wiener_amp=0.0, rough_amp=0.0,
        initial_value=np.array([0.2, 0.3]),
    )
    grid = TimeGrid(1.0, 256)
    out_x, out_y = solve_coupled(frozen_vol, price, grid, seed=8, count=40)
    assert np.all(out_x.paths.values[:, -1, 0] == 0.2)
    # constant volatility state: the price stage is the geometric equation
    sigma_w = 0.5 * np.tanh(0.2)
    sigma_b = 0.4 * (1.0 + 0.3**2) ** 0.1
    geom = model_zoo("geometric_mixed", mu=0.05, sigma_w=sigma_w, sigma_b=sigma_b)
    replay = euler_mixed(geom, grid, out_y.wiener, out_y.rough)
    np.testing.assert_allclose(out_y.paths.values, replay.paths.values, rtol=1e-12)


def _zeroed_coupled_fields(price):
    from dataclasses import replace

    def zero_drift(t, x, y):
        return np.zeros_like(y)

    def zero_block(t, x, y):
        return np.zeros((len(y), 1, 1))

    return replace(
        price,
        drift=CoefficientField("zero", "coupled", 1, 0, zero_drift),
        wiener=CoefficientField("zero", "coupled", 1, 1, zero_block),
        rough=CoefficientField("zero", "coupled", 1, 1, zero_block),
        claimed_constants={},
    )


def test_zero_coupled_coefficients_keep_initial_value():
    vol, price = model_zoo("stochvol")
    grid = TimeGrid(1.0, 64)
    _, out_y = solve_coupled(vol, _zeroed_coupled_fields(price), grid, seed=9, count=10)
    assert np.all(out_y.paths.values == 1.0)


def test_grid_halving_errors_shrink():
    rows = geometric_convergence_study(
        GeometricParams(1.0, 0.1, 0.2, 0.3), 0.75, [2**6, 2**7, 2**8, 2**9], 500, seed=42
    )
    errors = [r.mean_abs_terminal_error for r in rows]
    for a, b in zip(errors, errors[1:]):
        assert b < 1.1 * a  # monotone within a 10% noise allowance


def _memory_owner(values):
    return values if values.base is None else values.base


@pytest.mark.parametrize("name", ["linear_mixed", "stochvol"])
def test_solve_levels_reduces_each_level_before_solving_the_next(monkeypatch, name):
    model = model_zoo(name)
    model_x, model_y = model if isinstance(model, tuple) else (model, None)
    levels = (8, 16, 32)
    drivers = stage_drivers(model_x, model_y, TimeGrid(1.0, 32), 6, 3, 0)
    outputs = []
    primary_drivers = []

    def drawing(*args):
        drawn = stage_drivers(*args)
        primary_drivers.extend(weakref.ref(_memory_owner(d.values)) for d in drawn[:2] if d is not None)
        return drawn

    def coupled(model_y, grid, base_states, wiener, rough):
        if grid.step_count == levels[-1]:
            assert primary_drivers and all(ref() is None for ref in primary_drivers), (
                "the primary finest drivers are still alive at the finest coupled solve"
            )
        return euler_coupled(model_y, grid, base_states, wiener, rough)

    monkeypatch.setattr(solver, "stage_drivers", drawing)
    monkeypatch.setattr(solver, "euler_coupled", coupled)

    def reduce(out):
        assert all(ref() is None for ref in outputs), "the previous level's output is still alive"
        outputs.append(weakref.ref(out))
        return out.paths.values.copy()

    got = solve_levels(model_x, model_y, levels, 6, 3, 0, reduce)
    assert list(got) == list(levels)
    for n in levels:
        w, z, w_y, z_y = (None if d is None else d.restrict(32 // n) for d in drivers)
        direct = euler_mixed(model_x, TimeGrid(1.0, n), w, z)
        if model_y is not None:
            direct = euler_coupled(model_y, TimeGrid(1.0, n), direct.paths, w_y, z_y)
        assert np.array_equal(got[n], direct.paths.values, equal_nan=True)


def test_solve_levels_chunk_peaks_under_six_finest_arrays():
    """A coupled chunk never holds more than the four drivers and X's two columns.

    Seven finest-size arrays would be alive if the primary drivers outlived
    the finest primary solve. The Euler loop's 64-step block scratch came to
    about ten (block, paths) arrays when this was written.
    """
    model_x, model_y = model_zoo("stochvol")
    count, levels = 512, (2048, 4096)
    finest = count * (levels[-1] + 1) * 8
    block = solver._BLOCK_STEPS * count * 8
    tracemalloc.start()
    try:
        solve_levels(model_x, model_y, levels, count, 3, 0, lambda out: out.survivor_sup_norms())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * finest + 16 * block, f"peak {peak / finest:.2f} finest arrays"


def test_positivity_of_geometric_paths():
    model = model_zoo("geometric_mixed", mu=0.5, sigma_w=0.5, sigma_b=0.5)
    out = solve_model(model, TimeGrid(1.0, 1024), 500, seed=10)
    assert out.blowup_count == 0
    assert out.paths.values.min() > 0.0


def test_solution_is_adapted_to_past_increments():
    model = model_zoo("linear_mixed")
    grid = TimeGrid(1.0, 64)
    w, z = generate_drivers(model.driver, grid, 8, seed=11)
    base = euler_mixed(model, grid, w, z)
    cut = 32
    tampered_w = w.values.copy()
    tampered_w[:, cut + 1:, :] += 5.0  # future increments only
    from mixedsde import PathBatch

    out = euler_mixed(model, grid, PathBatch(grid, tampered_w), z)
    np.testing.assert_array_equal(
        base.paths.values[:, : cut + 1, :], out.paths.values[:, : cut + 1, :]
    )
    assert not np.array_equal(base.paths.values[:, cut + 1, :], out.paths.values[:, cut + 1, :])


def test_blowup_is_flagged_not_raised():
    def quad(t, x):
        return x * x

    model = ModelSpec(
        name="quad",
        state_dim=1,
        initial_value=[1.0],
        horizon=1.0,
        drift=CoefficientField("quad", "state", 1, 0, quad),
        wiener=constant_field(0.5, columns=1),
        rough=constant_field(0.0, columns=1),
        driver=DriverSpec(1, 1, (0.75,)),
    )
    out = solve_model(model, TimeGrid(1.0, 1024), 200, seed=9)
    assert 0 < out.blowup_count < 200
    for i in np.flatnonzero(out.blown):
        k = out.first_nonfinite_index[i]
        assert k > 0
        assert np.isfinite(out.paths.values[i, :k, 0]).all()
        assert np.isnan(out.paths.values[i, k:, 0]).all()
    survivors = out.paths.values[~out.blown]
    assert np.isfinite(survivors).all()
