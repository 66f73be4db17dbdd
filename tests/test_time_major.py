"""Time-major storage in the solver: layout never changes a byte, and it stays time-major.

The level ladder keeps its drivers as transposed views of C-contiguous
(n+1, count, dim) arrays and its Euler states as transposed views of
C-contiguous, component-major (n+1, dim, count) arrays. The public API
still takes and returns (count, n+1, dim) batches, so the Euler scheme
must give the same bytes on a path-major and a time-major copy of the same
inputs, restricted or not. The pins below fail if the drivers or states go
back to path-major storage, whose coarse-level block copies read one cache
line per element.
"""

import tracemalloc

import numpy as np
import pytest

from mixedsde import TimeGrid, generate_fbm, generate_wiener, model_zoo
from mixedsde import randomness as rnd
from mixedsde.paths import PathBatch
from mixedsde.solver import SolveOutput, euler_coupled, euler_mixed, solve_levels, stage_drivers

PATHS = 7
B = 64


def _time_major(values):
    return np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)


def _path_major(values):
    return np.ascontiguousarray(values)


def _is_time_major(values):
    """A view of a C-contiguous (n+1, count, dim) array."""
    base = values.base
    return (
        base is not None
        and base.flags.c_contiguous
        and base.shape == (values.shape[1], values.shape[0], values.shape[2])
        and np.shares_memory(base, values)
    )


def _is_component_major(values):
    """A view of a C-contiguous (n+1, dim, count) array."""
    base = values.base
    return (
        base is not None
        and base.flags.c_contiguous
        and base.shape == (values.shape[1], values.shape[2], values.shape[0])
        and np.shares_memory(base, values)
    )


def _walks(n, dim, seed):
    rng = np.random.default_rng(seed)
    values = np.zeros((PATHS, n + 1, dim))
    values[:, 1:] = np.cumsum(rng.standard_normal((PATHS, n, dim)) / np.sqrt(n), axis=1)
    return values


def _batch(grid, values, layout, stride=1):
    """``values`` on ``grid`` in ``layout``, restricted by ``stride`` after the layout copy."""
    if values is None:
        return None
    return PathBatch(grid, layout(values)).restrict(stride)


def _same_bytes(a, b):
    for x, y in zip(
        (a.paths.values, a.blown, a.first_nonfinite_index), (b.paths.values, b.blown, b.first_nonfinite_index)
    ):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _mixed_both_layouts(model, n, w, z, stride=1):
    fine = TimeGrid(1.0, n * stride)
    grid = TimeGrid(1.0, n)
    got = [
        euler_mixed(model, grid, _batch(fine, w, layout, stride), _batch(fine, z, layout, stride))
        for layout in (_path_major, _time_major)
    ]
    _same_bytes(*got)
    return got[0]


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("n", [B - 1, 2 * B + 3])
def test_bounded_trig_d2_is_layout_independent(n, stride):
    model = model_zoo("bounded_trig", state_dim=2, wiener_dim=2, rough_dim=1, initial_value=[0.5, -0.3])
    m = n * stride
    _mixed_both_layouts(model, n, _walks(m, 2, seed=1), _walks(m, 1, seed=2), stride)


@pytest.mark.parametrize("stride", [1, 4])
def test_linear_mixed_through_field_kernel_is_layout_independent(stride):
    model = model_zoo("linear_mixed", state_dim=2, wiener_dim=2, rough_dim=1)
    assert model.kernel is None
    n = 2 * B + 3
    m = n * stride
    _mixed_both_layouts(model, n, _walks(m, 2, seed=3), _walks(m, 1, seed=4), stride)


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("driver_layout", [_path_major, _time_major])
@pytest.mark.parametrize("base_layout", [_path_major, _time_major])
def test_stochvol_coupled_stage_is_layout_independent(base_layout, driver_layout, stride):
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    n = 2 * B + 3
    m = n * stride
    grid = TimeGrid(1.0, n)
    fine = TimeGrid(1.0, m)
    w, z = (_batch(fine, _walks(m, 1, seed), _path_major, stride) for seed in (5, 6))
    base = euler_mixed(model_x, grid, w, z).paths.values.copy()
    base[3, B:] = np.nan
    w_y, z_y = _walks(m, 1, 7), _walks(m, 1, 8)

    def coupled(base_values, layout):
        return euler_coupled(
            model_y,
            grid,
            PathBatch(grid, base_values),
            _batch(fine, w_y, layout, stride),
            _batch(fine, z_y, layout, stride),
        )

    want = coupled(_path_major(base), _path_major)
    got = coupled(base_layout(base), driver_layout)
    _same_bytes(got, want)
    assert got.blown[3] and got.first_nonfinite_index[3] == B + 1


def test_staggered_blowups_are_layout_independent():
    model = model_zoo("linear_mixed")
    n = 3 * B + 5
    w = _walks(n, 1, seed=9)
    for path, index, value in ((0, 1, np.inf), (2, B - 1, -np.inf), (4, B, np.nan), (6, B + 1, np.inf)):
        w[path, index:, 0] = value
    got = _mixed_both_layouts(model, n, w, _walks(n, 1, seed=10))
    assert got.first_nonfinite_index.tolist() == [1, -1, B - 1, -1, B, -1, B + 1]


def test_stage_drivers_are_time_major_copies_of_the_generated_drivers():
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid = TimeGrid(1.0, 2 * B + 3)
    drivers = stage_drivers(model_y, grid, PATHS, 11, 5)

    def generated(spec, wiener_role, rough_role):
        (hurst,) = spec.rough_hurst
        return (
            generate_wiener(grid, spec.wiener_dim, PATHS, 11, stream_role=wiener_role, path_offset=5),
            generate_fbm(grid, hurst, PATHS, 11, stream_role=rough_role, path_offset=5),
        )

    want = generated(model_x.driver, rnd.WIENER_X, rnd.ROUGH_X) + generated(model_y.driver, rnd.WIENER_Y, rnd.ROUGH_Y)
    for got, expected in zip(drivers, want):
        assert got.grid == expected.grid
        assert got.values.shape == expected.values.shape
        assert got.values.tobytes() == expected.values.tobytes()
        assert _is_time_major(got.values)


def test_driver_drawing_holds_four_finest_arrays_plus_block_scratch():
    """The drivers are written once, into the storage the Euler loop reads.

    ``stochvol``'s four batches (the primary pair and the coupled pair) are
    the only finest-size arrays: a path-major copy of any of them would
    cost a fifth. At 1,024 paths one synthesis block's scratch is about
    half of one array.
    """
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    count, n = 1024, 4096
    finest = count * (n + 1) * 8
    tracemalloc.start()
    try:
        drivers = stage_drivers(model_y, TimeGrid(1.0, n), count, 3, 0)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(drivers) == 4 and current < 4.5 * finest
    assert peak < 4.75 * finest, f"peak {peak / finest:.2f} finest arrays"


def test_euler_outputs_are_time_major():
    """Time outermost, then one contiguous row of paths per state component."""
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid = TimeGrid(1.0, 2 * B + 3)
    w, z, w_y, z_y = stage_drivers(model_y, grid, PATHS, 12, 0)
    out_x = euler_mixed(model_x, grid, w, z)
    out_y = euler_coupled(model_y, grid, out_x.paths, w_y, z_y)
    for out in (out_x, out_y):
        assert _is_component_major(out.paths.values)
        assert _is_time_major(out.wiener.values) and _is_time_major(out.rough.values)
    # from path-major drivers too: the layout belongs to the solver, not to its inputs
    w, z = (PathBatch(grid, _path_major(b.values)) for b in (w, z))
    assert _is_component_major(euler_mixed(model_x, grid, w, z).paths.values)

    seen = solve_levels(model_y, (B, 4 * B), PATHS, 12, 0, lambda out: _is_component_major(out.paths.values))
    assert seen == {B: True, 4 * B: True}


def test_coupled_stage_cannot_write_its_base_states():
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid = TimeGrid(1.0, B)
    w, z, w_y, z_y = stage_drivers(model_y, grid, PATHS, 13, 0)
    base = euler_mixed(model_x, grid, w, z).paths
    kernel = model_y.kernel

    def prepare(ts, dt, dw, dz, xs):
        xs[0] = 0.0
        return kernel.prepare(ts, dt, dw, dz, xs)

    object.__setattr__(model_y, "kernel", type(kernel)(prepare, kernel.increment))
    with pytest.raises(ValueError, match="read-only"):
        euler_coupled(model_y, grid, base, w_y, z_y)


def _reference_sups(values):
    if values.shape[2] == 1:
        return np.abs(values[:, :, 0]).max(axis=1)
    return np.linalg.norm(values, axis=2).max(axis=1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("layout", [_path_major, _time_major])
def test_survivor_sup_norms_drop_blown_rows_and_keep_positive_zero(dim, layout):
    """sup_norms() keeps one slot per path, NaN where blown; dropping those slots leaves the survivors' sups."""
    n = 2 * B + 3
    values = _walks(n, dim, seed=14)
    values[0] = 0.0
    values[1] = -0.0
    values[2, 5:] = np.nan
    values[4, B:] = np.nan
    values[5, :, 0] = -np.abs(values[5, :, 0])  # the sup sits at a minimum
    blown = np.zeros(PATHS, dtype=bool)
    blown[[2, 4]] = True
    first = np.full(PATHS, -1)
    first[[2, 4]] = 5, B
    out = SolveOutput(PathBatch(TimeGrid(1.0, n), layout(values)), first, None, None)
    got = out.sup_norms()
    want = _reference_sups(values)
    assert got.dtype == want.dtype and got.shape == (PATHS,)
    assert np.array_equal(np.isnan(got), out.blown) and np.array_equal(np.isnan(want), blown)
    assert got[~blown].tobytes() == want[~blown].tobytes()
    assert got[~np.isnan(got)].tobytes() == _reference_sups(values[~blown]).tobytes()
    assert not np.signbit(got[:2]).any()


def test_sup_norms_of_an_all_blown_batch_is_all_nan():
    values = np.full((3, 5, 1), np.nan)
    out = SolveOutput(PathBatch(TimeGrid(1.0, 4), values), np.ones(3, dtype=np.int64), None, None)
    got = out.sup_norms()
    assert got.shape == (3,) and got.dtype == np.float64 and np.isnan(got).all()
