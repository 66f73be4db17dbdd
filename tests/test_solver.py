import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from mixedsde import (
    CoefficientField,
    CoupledModelSpec,
    DomainError,
    DriverSpec,
    GridMismatchError,
    ModelSpec,
    TimeGrid,
    closed_form_geometric_batch,
    euler_mixed,
    generate_fbm,
    geometric_convergence_study,
    model_zoo,
    solve_coupled,
    solve_model,
)
from mixedsde import fbm, parallel, solver
from mixedsde import randomness as rnd
from mixedsde.solver import SolveOutput, euler_coupled, solve_levels, stage_drivers


def constant_field(value, dim=1, columns=0):
    value = float(value)

    def evaluate(t, x):
        if columns:
            return np.full((len(x), dim, columns), value)
        return np.full((len(x), dim), value)

    return CoefficientField(f"const-{value}", evaluate)


def simple_model(a=0.0, b=0.0, c=0.0, x0=1.0, horizon=1.0):
    return ModelSpec(
        name="simple",
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
    w, z, _, _ = stage_drivers(model, grid, 4, 3, 0)
    with pytest.raises(DomainError):
        euler_mixed(model, grid, w, None)
    other = TimeGrid(1.0, 32)
    w2, z2, _, _ = stage_drivers(model, other, 4, 3, 0)
    with pytest.raises(GridMismatchError):
        euler_mixed(model, grid, w2, z2)


def test_geometric_euler_tracks_closed_form():
    model = model_zoo("geometric_mixed", mu=0.1, sigma_w=0.2, sigma_b=0.3, initial_value=1.0)
    grid = TimeGrid(1.0, 2**12)
    out = solve_model(model, grid, 100, seed=42)
    exact = closed_form_geometric_batch(model, out.wiener, out.rough)
    rel = np.abs(out.paths.values[:, -1, 0] - exact.values[:, -1, 0]) / exact.values[:, -1, 0]
    assert rel.mean() < 0.01


def test_closed_form_reductions():
    grid = TimeGrid(1.0, 64)
    w, z, _, _ = stage_drivers(model_zoo("geometric_mixed"), grid, 1, 5, 0)
    flat = closed_form_geometric_batch(
        model_zoo("geometric_mixed", initial_value=2.0, mu=0.3, sigma_w=0.0, sigma_b=0.0), w, z
    ).values[0, :, 0]
    np.testing.assert_allclose(flat, 2.0 * np.exp(0.3 * grid.points))
    gbm = closed_form_geometric_batch(
        model_zoo("geometric_mixed", initial_value=1.0, mu=0.0, sigma_w=0.5, sigma_b=0.0), w, z
    ).values[0, :, 0]
    expected = np.exp(-0.125 * grid.points + 0.5 * w.values[0, :, 0])
    np.testing.assert_allclose(gbm, expected)


def test_closed_form_refuses_a_model_other_than_geometric_mixed():
    grid = TimeGrid(1.0, 8)
    w, z, _, _ = stage_drivers(model_zoo("geometric_mixed"), grid, 2, 5, 0)
    with pytest.raises(DomainError, match="'geometric_mixed' only, got 'linear_mixed'"):
        closed_form_geometric_batch(model_zoo("linear_mixed"), w, z)


def test_closed_form_refuses_drivers_off_the_model_horizon():
    w, z, _, _ = stage_drivers(model_zoo("geometric_mixed"), TimeGrid(1.0, 16), 2, 5, 0)
    with pytest.raises(GridMismatchError, match="grid horizon 1.0 differs from the horizon 2.0 of 'geometric_mixed'"):
        closed_form_geometric_batch(model_zoo("geometric_mixed", horizon=2.0), w, z)


def test_closed_form_refuses_driver_batches_of_different_path_counts():
    model = model_zoo("geometric_mixed")
    grid = TimeGrid(1.0, 16)
    w = stage_drivers(model, grid, 1, 5, 0)[0]
    z = stage_drivers(model, grid, 5, 5, 0)[1]
    with pytest.raises(DomainError, match="disagree on path count: 5 vs 1"):
        closed_form_geometric_batch(model, w, z)


def test_convergence_study_refuses_another_model_before_drawing_drivers(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("drivers drawn for a model the closed form cannot check")

    monkeypatch.setattr(solver, "stage_drivers", fail)
    with pytest.raises(DomainError, match="'geometric_mixed' only, got 'linear_mixed'"):
        geometric_convergence_study(model_zoo("linear_mixed"), [8, 16], 4, seed=1)


def test_a_stage_of_the_wrong_kind_is_refused_before_drawing_drivers(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("drivers drawn for a stage of the wrong kind")

    monkeypatch.setattr(solver, "stage_drivers", fail)
    price, vol = model_zoo("stochvol"), model_zoo("linear_mixed")
    grid = TimeGrid(1.0, 8)
    w, z, _, _ = stage_drivers(vol, grid, 2, 1, 0)
    for run in (lambda: solve_model(price, grid, 2, 1), lambda: euler_mixed(price, grid, w, z)):
        with pytest.raises(DomainError, match="'stochvol' is a coupled model: solve it with solve_coupled"):
            run()
    base = euler_mixed(vol, grid, w, z).paths
    for run in (lambda: solve_coupled(vol, grid, 2, 1), lambda: euler_coupled(vol, grid, base, w, z)):
        with pytest.raises(DomainError, match="'linear_mixed' is a single-stage model: solve it with solve_model"):
            run()


# Every entry point refuses the grid before it draws a driver or takes a step.
@pytest.mark.parametrize("entry", ["solve_model", "euler_mixed", "solve_coupled", "euler_coupled"])
def test_a_grid_off_the_model_horizon_is_refused_before_drawing_drivers(monkeypatch, entry):
    def fail(*args, **kwargs):
        raise AssertionError("drivers drawn for a grid off the model's horizon")

    grid = TimeGrid(1.0, 16)
    w, z, w_y, z_y = stage_drivers(model_zoo("stochvol"), grid, 4, 1, 0)
    base = euler_mixed(model_zoo("stochvol").base, grid, w, z).paths
    single, coupled = model_zoo("geometric_mixed", horizon=2.0), model_zoo("stochvol", horizon=2.0)
    run, name = {
        "solve_model": (lambda: solve_model(single, grid, 4, 1), "geometric_mixed"),
        "euler_mixed": (lambda: euler_mixed(single, grid, w, z), "geometric_mixed"),
        "solve_coupled": (lambda: solve_coupled(coupled, grid, 4, 1), "stochvol"),
        "euler_coupled": (lambda: euler_coupled(coupled, grid, base, w_y, z_y), "stochvol"),
    }[entry]
    monkeypatch.setattr(solver, "stage_drivers", fail)
    with pytest.raises(GridMismatchError, match=f"grid horizon 1.0 differs from the horizon 2.0 of '{name}'"):
        run()


def test_malliavin_sensitivity_tracks_price_ratio():
    sens = model_zoo("malliavin_linearized", mu=0.1, sigma_w=0.2, sigma_b=0.3)
    grid = TimeGrid(1.0, 512)
    out_x, out_y = solve_coupled(sens, grid, seed=7, count=30)
    # the linearized equation shares the linear closed form: Y_t/Y_0 == S_t/S_0
    ratio = out_y.paths.values[:, :, 0] / out_x.paths.values[:, :, 0]
    assert np.abs(ratio / ratio[:, :1] - 1.0).max() < 1e-9


def test_stochvol_with_frozen_volatility_reduces_to_geometric():
    price = model_zoo("stochvol", rho_power=0.2)
    frozen_vol = model_zoo(
        "bounded_trig", state_dim=2, drift_amp=0.0, wiener_amp=0.0, rough_amp=0.0,
        initial_value=np.array([0.2, 0.3]),
    )
    grid = TimeGrid(1.0, 256)
    out_x, out_y = solve_coupled(replace(price, base=frozen_vol), grid, seed=8, count=40)
    assert np.all(out_x.paths.values[:, -1, 0] == 0.2)
    # constant volatility state: the price stage is the geometric equation
    sigma_w = 0.5 * np.tanh(0.2)
    sigma_b = 0.4 * (1.0 + 0.3**2) ** 0.1
    geom = model_zoo("geometric_mixed", mu=0.05, sigma_w=sigma_w, sigma_b=sigma_b)
    replay = euler_mixed(geom, grid, out_y.wiener, out_y.rough)
    np.testing.assert_allclose(out_y.paths.values, replay.paths.values, rtol=1e-12)


def _zeroed_coupled_fields(price):
    def zero_drift(t, x, y):
        return np.zeros_like(y)

    def zero_block(t, x, y):
        return np.zeros((len(y), 1, 1))

    return replace(
        price,
        drift=CoefficientField("zero", zero_drift),
        wiener=CoefficientField("zero", zero_block),
        rough=CoefficientField("zero", zero_block),
        claimed_constants={},
    )


def test_zero_coupled_coefficients_keep_initial_value():
    price = model_zoo("stochvol")
    grid = TimeGrid(1.0, 64)
    _, out_y = solve_coupled(_zeroed_coupled_fields(price), grid, seed=9, count=10)
    assert np.all(out_y.paths.values == 1.0)


def test_grid_halving_errors_shrink():
    rows = geometric_convergence_study(
        model_zoo("geometric_mixed", initial_value=1.0, mu=0.1, sigma_w=0.2, sigma_b=0.3, hurst=0.75),
        [2**6, 2**7, 2**8, 2**9], 500, seed=42,
    )
    errors = [r.mean_abs_terminal_error for r in rows]
    for a, b in zip(errors, errors[1:]):
        assert b < 1.1 * a  # monotone within a 10% noise allowance


def test_stage_drivers_shapes_and_stage_independence():
    grid = TimeGrid(1.0, 32)
    w, z, w_y, z_y = stage_drivers(model_zoo("stochvol"), grid, 20, 3, 0)
    assert [b.values.shape for b in (w, z, w_y, z_y)] == [(20, 33, 1)] * 4
    assert not np.array_equal(w.values, w_y.values)
    assert not np.array_equal(z.values, z_y.values)
    w, z, w_y, z_y = stage_drivers(model_zoo("malliavin_linearized"), grid, 20, 3, 0)
    assert w_y is w and z_y is z
    assert stage_drivers(model_zoo("linear_mixed"), grid, 20, 3, 0)[2:] == (None, None)
    for count in (0, -1):
        with pytest.raises(DomainError, match=f"count must be >= 1, got {count}"):
            stage_drivers(model_zoo("linear_mixed", wiener_dim=0), grid, count, 3, 0)


def test_stage_drivers_rough_values_are_circulant_fbm():
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid, count, seed, offset = TimeGrid(1.0, 16), 5, 7, 3
    _, z, _, z_y = stage_drivers(model_y, grid, count, seed, offset)
    for batch, spec, role in ((z, model_x.driver, rnd.ROUGH_X), (z_y, model_y.driver, rnd.ROUGH_Y)):
        for j, hurst in enumerate(spec.rough_hurst):
            want = generate_fbm(
                grid, hurst, count, seed, method="circulant", stream_role=role, component=j, path_offset=offset
            )
            assert batch.values[:, :, j].tobytes() == want.values[:, :, 0].tobytes()


def _memory_owner(values):
    return values if values.base is None else values.base


@pytest.mark.parametrize("name", ["linear_mixed", "stochvol"])
def test_solve_levels_reduces_each_level_before_solving_the_next(monkeypatch, name):
    model = model_zoo(name)
    coupled = isinstance(model, CoupledModelSpec)
    model_x = model.base if coupled else model
    levels = (8, 16, 32)
    drivers = stage_drivers(model, TimeGrid(1.0, 32), 6, 3, 0)
    outputs = []
    primary_drivers = []

    def drawing(*args):
        drawn = stage_drivers(*args)
        primary_drivers.extend(weakref.ref(_memory_owner(d.values)) for d in drawn[:2] if d is not None)
        return drawn

    def coupled_stage(model_y, grid, base_states, wiener, rough):
        if grid.step_count == levels[-1]:
            assert primary_drivers and all(ref() is None for ref in primary_drivers), (
                "the primary finest drivers are still alive at the finest coupled solve"
            )
        return euler_coupled(model_y, grid, base_states, wiener, rough)

    monkeypatch.setattr(solver, "stage_drivers", drawing)
    monkeypatch.setattr(solver, "euler_coupled", coupled_stage)

    def reduce(out):
        assert all(ref() is None for ref in outputs), "the previous level's output is still alive"
        outputs.append(weakref.ref(out))
        return out.paths.values.copy()

    got = solve_levels(model, levels, 6, 3, 0, reduce)
    assert list(got) == list(levels)
    for n in levels:
        w, z, w_y, z_y = (None if d is None else d.restrict(32 // n) for d in drivers)
        direct = euler_mixed(model_x, TimeGrid(1.0, n), w, z)
        if coupled:
            direct = euler_coupled(model, TimeGrid(1.0, n), direct.paths, w_y, z_y)
        assert np.array_equal(got[n], direct.paths.values, equal_nan=True)


def test_solve_levels_chunk_peaks_under_six_finest_arrays():
    """A coupled chunk never holds more than the four drivers and X's two columns.

    Seven finest-size arrays would be alive if the primary drivers outlived
    the finest primary solve. The Euler loop's 64-step block scratch came to
    about ten (block, paths) arrays when this was written.
    """
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    count, levels = 512, (2048, 4096)
    finest = count * (levels[-1] + 1) * 8
    block = solver._BLOCK_STEPS * count * 8
    tracemalloc.start()
    try:
        solve_levels(model_y, levels, count, 3, 0, SolveOutput.sup_norms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * finest + 16 * block, f"peak {peak / finest:.2f} finest arrays"


def _traced_peak(model, levels, count):
    tracemalloc.start()
    try:
        solve_levels(model, levels, count, 3, 0, SolveOutput.sup_norms)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["stochvol", "linear_mixed"])
def test_planned_chunk_peaks_under_its_predicted_footprint(monkeypatch, name):
    model, levels = model_zoo(name), (256, 1024)
    path_bytes = solver.ladder_path_bytes(model, levels)
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 512 * path_bytes + 1)
    count = parallel.chunk_paths(path_bytes)
    assert count == 512
    peak = _traced_peak(model, levels, count)
    assert peak <= count * path_bytes, f"peak {peak / path_bytes:.0f} paths' footprints"


@pytest.mark.parametrize("name", ["stochvol", "linear_mixed"])
def test_a_64_path_chunk_adds_at_most_one_synthesis_block(name):
    """At the floor, a circulant block's scratch can outgrow the chunk's own state columns.

    It holds the block's normals, half spectrum and inverse FFT, six finest
    columns per path of the block, and the embedding's eigenvalues, under
    one more, while the drivers are drawn and before any state exists.
    """
    model, levels = model_zoo(name), (256, 1024)
    block = fbm._BLOCK_ROWS * 7 * 8 * (levels[-1] + 1)
    assert _traced_peak(model, levels, 64) <= 64 * solver.ladder_path_bytes(model, levels) + block


def test_sup_slots_line_up_across_levels_and_replay_alone():
    """Entry i of every level is path i: NaN exactly where it blew up, and a one-path replay gives its bytes."""
    model, levels, seed = model_zoo("quadratic_control"), (32, 64), 9
    blown = solve_levels(model, levels, 300, seed, 0, lambda out: out.blown)
    sups = solve_levels(model, levels, 300, seed, 0, SolveOutput.sup_norms)
    for n in levels:
        assert sups[n].shape == (300,) and np.array_equal(np.isnan(sups[n]), blown[n])
    finest_only = np.flatnonzero(blown[64] & ~blown[32])
    assert len(finest_only)  # blowups appear between the levels
    for i in (int(np.nanargmax(sups[64])), int(finest_only[0])):
        alone = solve_levels(model, levels, 1, seed, i, SolveOutput.sup_norms)
        for n in levels:
            assert alone[n].tobytes() == sups[n][i : i + 1].tobytes()


def test_positivity_of_geometric_paths():
    model = model_zoo("geometric_mixed", mu=0.5, sigma_w=0.5, sigma_b=0.5)
    out = solve_model(model, TimeGrid(1.0, 1024), 500, seed=10)
    assert out.blowup_count == 0
    assert out.paths.values.min() > 0.0


def test_solution_is_adapted_to_past_increments():
    model = model_zoo("linear_mixed")
    grid = TimeGrid(1.0, 64)
    w, z, _, _ = stage_drivers(model, grid, 8, 11, 0)
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
        initial_value=[1.0],
        horizon=1.0,
        drift=CoefficientField("quad", quad),
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


def test_blown_is_derived_from_the_first_non_finite_index():
    out = solve_model(model_zoo("quadratic_control"), TimeGrid(1.0, 1024), 200, seed=9)
    assert 0 < out.blowup_count < 200
    assert out.blown.tobytes() == (out.first_nonfinite_index >= 0).tobytes()
    assert out.blown.tobytes() == (~np.isfinite(out.paths.values).all(axis=(1, 2))).tobytes()
    assert "blown" not in {f.name for f in fields(out)}
