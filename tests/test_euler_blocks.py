"""The blocked Euler loop against a plain per-step reference, byte for byte.

``_reference_loop`` is the straightforward left-point scheme: one strided
gather of each driver increment and base state per step, a per-path finite
check every step, and one strided write of the new state. A spec without a
stage kernel of its own is stepped by evaluating its fields; a spec with
one (``bounded_trig``, the ``stochvol`` price stage) by its kernel, one
step at a time, so its per-block factors are checked not to depend on the
block a step falls in. The solver walks the grid in time-major blocks
instead; these tests pin that it produces the same bytes at every block
edge, with blowups on either side of one, with NaN in a coupled stage's
base states, and with fields that return their input array.
"""

import numpy as np
import pytest

from mixedsde import CoefficientField, DriverSpec, ModelSpec, TimeGrid, model_zoo
from mixedsde.models import CoupledModelSpec
from mixedsde.paths import PathBatch
from mixedsde.solver import _BLOCK_STEPS as B
from mixedsde.solver import euler_coupled, euler_mixed, stage_drivers

PATHS = 9


def _one_step(values):
    return None if values is None else values[None]


def _reference_increment(model, dt):
    """(t, dw, dz, xk, state) -> the step's increment, from the spec's kernel or fields."""
    kernel = model.kernel
    if kernel is not None:
        def increment(t, dw, dz, xk, state):
            prepared = kernel.prepare(np.array([t]), dt, _one_step(dw), _one_step(dz), _one_step(xk))
            return kernel.increment(prepared, 0, state)

        return increment

    def increment(t, dw, dz, xk, state):
        args = (t, state) if xk is None else (t, xk, state)
        step = model.drift(*args) * dt
        if model.wiener is not None:
            step += np.einsum("pdc,pc->pd", model.wiener(*args), dw)
        if model.rough is not None:
            step += np.einsum("pdc,pc->pd", model.rough(*args), dz)
        return step

    return increment


def _reference_loop(grid, model, count, w_values, z_values, x_states=None):
    n = grid.step_count
    dt = grid.dt
    x0 = model.initial_value
    dim = len(x0)
    increment = _reference_increment(model, dt)
    out = np.empty((count, n + 1, dim))
    out[:, 0, :] = x0
    blown = np.zeros(count, dtype=bool)
    first_bad = np.full(count, -1, dtype=np.int64)
    state = np.repeat(x0[None, :], count, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            xk = x_states[:, k, :] if x_states is not None else None
            dw = w_values[:, k + 1, :] - w_values[:, k, :] if w_values is not None else None
            dz = z_values[:, k + 1, :] - z_values[:, k, :] if z_values is not None else None
            state = state + increment(k * dt, dw, dz, xk, state)
            newly_bad = ~blown & ~np.isfinite(state).all(axis=1)
            if newly_bad.any():
                first_bad[newly_bad] = k + 1
                blown |= newly_bad
                state[blown] = np.nan
            out[:, k + 1, :] = state
    return out, blown, first_bad


def _walks(n, dim, seed, count=PATHS):
    rng = np.random.default_rng(seed)
    values = np.zeros((count, n + 1, dim))
    values[:, 1:] = np.cumsum(rng.standard_normal((count, n, dim)) / np.sqrt(n), axis=1)
    return values


def _batch(grid, values):
    return PathBatch(grid, values) if values is not None else None


def _assert_same_bytes(got, want):
    for g, w in zip((got.paths.values, got.blown, got.first_nonfinite_index), want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _check_mixed(model, n, w_values, z_values):
    grid = TimeGrid(1.0, n)
    inputs = [v.copy() for v in (w_values, z_values) if v is not None]
    got = euler_mixed(model, grid, _batch(grid, w_values), _batch(grid, z_values))
    want = _reference_loop(grid, model, PATHS, w_values, z_values)
    _assert_same_bytes(got, want)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(inputs, (w_values, z_values)))
    return got


def _check_coupled(model_y, n, base_values, w_values, z_values):
    grid = TimeGrid(1.0, n)
    base_copy = base_values.copy()
    got = euler_coupled(
        model_y, grid, PathBatch(grid, base_values), _batch(grid, w_values), _batch(grid, z_values)
    )
    want = _reference_loop(grid, model_y, PATHS, w_values, z_values, x_states=base_values)
    _assert_same_bytes(got, want)
    assert np.array_equal(base_values, base_copy, equal_nan=True)
    return got


EDGE_STEPS = [1, B - 1, B, B + 1, 3 * B + 5]


@pytest.mark.parametrize("n", EDGE_STEPS)
def test_mixed_stage_matches_reference_at_block_edges(n):
    model = model_zoo("bounded_trig", state_dim=2, wiener_dim=2, rough_dim=1, initial_value=[0.5, -0.3])
    _check_mixed(model, n, _walks(n, 2, seed=n), _walks(n, 1, seed=n + 1))


@pytest.mark.parametrize("n", EDGE_STEPS)
def test_coupled_stage_matches_reference_at_block_edges(n):
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid = TimeGrid(1.0, n)
    w, z = _walks(n, 1, seed=n), _walks(n, 1, seed=n + 1)
    base = euler_mixed(model_x, grid, PathBatch(grid, w), PathBatch(grid, z))
    _check_coupled(model_y, n, base.paths.values, _walks(n, 1, seed=n + 2), _walks(n, 1, seed=n + 3))


def _linear_model(x0=1.0, rate=0.5):
    """dX = rate X dt + 0.3 X dW: blows up only where a driver increment does."""

    def drift(t, x):
        return rate * x

    def wiener(t, x):
        return 0.3 * x[:, :, None]

    return ModelSpec(
        name="linear",
        initial_value=[x0],
        horizon=1.0,
        drift=CoefficientField("lin-drift", drift),
        wiener=CoefficientField("lin-wiener", wiener),
        rough=None,
        driver=DriverSpec(1, 0),
    )


def _poison(values, path, index, value):
    """Driver value ``value`` at and after ``index``: the increment into it is non-finite."""
    values[path, index:, 0] = value
    return values


@pytest.mark.parametrize("blow_at", [1, B - 1, B, B + 1])
def test_single_blowup_matches_reference_on_either_side_of_a_block_edge(blow_at):
    n = 3 * B + 5
    w = _poison(_walks(n, 1, seed=blow_at), 4, blow_at, np.inf)
    got = _check_mixed(_linear_model(), n, w, None)
    assert got.first_nonfinite_index.tolist() == [-1] * 4 + [blow_at] + [-1] * (PATHS - 5)
    assert np.isnan(got.paths.values[4, blow_at:]).all()
    assert np.isfinite(got.paths.values[4, :blow_at]).all()


def test_staggered_blowups_keep_their_first_bad_index():
    n = 3 * B + 5
    w = _walks(n, 1, seed=3)
    for path, index, value in ((0, 1, np.inf), (3, B - 1, -np.inf), (5, B, np.nan), (7, B + 1, np.inf)):
        _poison(w, path, index, value)
    got = _check_mixed(_linear_model(), n, w, None)
    expected = [-1] * PATHS
    expected[0], expected[3], expected[5], expected[7] = 1, B - 1, B, B + 1
    assert got.first_nonfinite_index.tolist() == expected


def test_overflowing_state_sum_is_not_a_blowup():
    # Every entry is finite, but their sum overflows: the per-path check must clear them all.
    got = _check_mixed(_linear_model(x0=1e308, rate=0.0), B + 1, np.zeros((PATHS, B + 2, 1)), None)
    assert got.blowup_count == 0
    assert (got.paths.values == 1e308).all()


@pytest.mark.parametrize("nan_from", [1, B, B + 1])
def test_coupled_stage_over_nan_base_states_matches_reference(nan_from):
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    n = 2 * B + 3
    grid = TimeGrid(1.0, n)
    w, z = _walks(n, 1, seed=11), _walks(n, 1, seed=12)
    base = euler_mixed(model_x, grid, PathBatch(grid, w), PathBatch(grid, z)).paths.values.copy()
    base[2, nan_from:] = np.nan
    base[6, nan_from + 2 :] = np.nan
    got = _check_coupled(model_y, n, base, _walks(n, 1, seed=13), _walks(n, 1, seed=14))
    assert got.blown[[2, 6]].all()


def test_fields_that_return_their_input_are_not_written_into():
    n = 2 * B + 3
    mixed = ModelSpec(
        name="identity",
        initial_value=[1.0],
        horizon=1.0,
        drift=CoefficientField("id", lambda t, x: x),
        wiener=CoefficientField("w", lambda t, x: 0.3 * x[:, :, None]),
        rough=None,
        driver=DriverSpec(1, 0),
    )
    _check_mixed(mixed, n, _walks(n, 1, seed=21), None)

    for identity in (lambda t, x, y: y, lambda t, x, y: x):
        coupled = CoupledModelSpec(
            name="identity-coupled",
            base=mixed,
            initial_value=[1.0],
            drift=CoefficientField("id", identity),
            wiener=CoefficientField("w", lambda t, x, y: (0.3 * y)[:, :, None]),
            rough=None,
            driver=DriverSpec(1, 0),
        )
        _check_coupled(coupled, n, _walks(n, 1, seed=22), _walks(n, 1, seed=23), None)


def _row_before_nan_fill(model, n, w_values, z_values, got, path, row):
    """``path``'s state at ``row`` as the step from ``row - 1`` computes it, before any NaN fill."""
    grid = TimeGrid(1.0, n)
    k = row - 1

    def step(values):
        return None if values is None else values[path : path + 1, k + 1] - values[path : path + 1, k]

    state = got.paths.values[path : path + 1, k]
    with np.errstate(over="ignore", invalid="ignore"):
        increment = _reference_increment(model, grid.dt)(k * grid.dt, step(w_values), step(z_values), None, state)
    return (state + increment)[0]


def _assert_one_component_blows(model, n, w, z, got, path, row):
    """Only the second component of the row is non-finite; the output has NaN in both from it on."""
    assert np.isfinite(_row_before_nan_fill(model, n, w, z, got, path, row)).tolist() == [True, False]
    assert got.first_nonfinite_index[path] == row
    assert np.isnan(got.paths.values[path, row:]).all()
    assert np.isfinite(got.paths.values[path, :row]).all()


def _trig_d2():
    """With x = (0, 3), a finite driver jump of 1e308 overflows only the second component."""
    return model_zoo("bounded_trig", state_dim=2, wiener_dim=1, rough_dim=1, initial_value=[0.0, 3.0])


def test_trig_component_blowup_mid_block_matches_reference():
    n, path, row = 3 * B + 5, 4, B + B // 2
    w, z = _poison(_walks(n, 1, seed=31), path, row, 1e308), _walks(n, 1, seed=32)
    got = _check_mixed(_trig_d2(), n, w, z)
    _assert_one_component_blows(_trig_d2(), n, w, z, got, path, row)
    assert got.blowup_count == 1


def test_linear_coupled_component_blowup_mid_block_matches_reference():
    # Wiener column 1 drives only the second component; the drift then couples the first to it.
    model = model_zoo(
        "linear_mixed",
        state_dim=2,
        wiener_dim=2,
        rough_dim=1,
        drift_matrix=[[0.5, 0.2], [0.1, -0.3]],
        wiener_matrix=[[[0.3, 0.0], [0.0, 0.3]], [[0.0, 0.0], [0.0, 10.0]]],
        wiener_offset=0.0,
    )
    n, path, row = 3 * B + 5, 6, 2 * B + 7
    w, z = _walks(n, 2, seed=33), _walks(n, 1, seed=34)
    w[:, :, 1] = 0.0
    w[path, row:, 1] = 1e308
    got = _check_mixed(model, n, w, z)
    _assert_one_component_blows(model, n, w, z, got, path, row)
    assert got.blowup_count == 1


@pytest.mark.parametrize("edge", [B, 2 * B])
def test_blowups_on_the_last_step_of_a_block_and_the_first_of_the_next(edge):
    n = 3 * B + 5
    w, z = _walks(n, 1, seed=35), _walks(n, 1, seed=36)
    _poison(w, 2, edge, 1e308)
    _poison(w, 3, edge + 1, 1e308)
    got = _check_mixed(_trig_d2(), n, w, z)
    for path, row in ((2, edge), (3, edge + 1)):
        _assert_one_component_blows(_trig_d2(), n, w, z, got, path, row)
    assert got.blowup_count == 2


def test_path_blown_in_an_earlier_block_next_to_a_new_one():
    n = 3 * B + 5
    w = _walks(n, 1, seed=37)
    _poison(w, 2, 5, np.inf)
    _poison(w, 3, 2 * B + 7, -np.inf)
    got = _check_mixed(_linear_model(), n, w, None)
    assert got.first_nonfinite_index.tolist() == [-1, -1, 5, 2 * B + 7] + [-1] * (PATHS - 4)


def test_quadratic_control_blowups_match_reference_and_pinned_counts():
    # x' = x^2 from 1 blows up near t = 1: 124 of 300 paths, spread over blocks 2-4 at n = 256.
    model = model_zoo("quadratic_control")
    grid = TimeGrid(1.0, 256)
    w, z, _, _ = stage_drivers(model, grid, 300, 9, 0)
    got = euler_mixed(model, grid, w, z)
    _assert_same_bytes(got, _reference_loop(grid, model, 300, w.values, z.values))
    first = got.first_nonfinite_index
    assert got.blowup_count == 124
    assert np.bincount(first[got.blown] // B).tolist() == [0, 0, 7, 115, 2]
    assert int(first[got.blown].sum()) == 28409
