"""Euler scheme for mixed equations and the coupled second stage.

One left-point scheme serves both integral types: it matches the Ito
convention for the Wiener increments and converges to the pathwise Young
integral against the rough increments whenever their Holder order exceeds
1/2. Blowup is data, not an exception: a path that leaves the finite range
is truncated (NaN from the first bad index on) and flagged, so moment
studies can count and exclude it honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DomainError, GridMismatchError
from .fbm import generate_drivers
from .grids import TimeGrid
from .models import CoupledModelSpec, ModelSpec, field_kernel, model_zoo
from .paths import PathBatch

__all__ = [
    "SolveOutput",
    "GeometricParams",
    "ConvergenceRow",
    "euler_mixed",
    "euler_coupled",
    "solve_model",
    "solve_coupled",
    "stage_drivers",
    "check_levels",
    "solve_levels",
    "closed_form_geometric_batch",
    "geometric_convergence_study",
]


@dataclass(frozen=True)
class SolveOutput:
    """Solution batch plus per-path blowup bookkeeping and the drivers used."""

    paths: PathBatch
    blown: np.ndarray
    first_nonfinite_index: np.ndarray
    wiener: PathBatch | None
    rough: PathBatch | None

    @property
    def blowup_count(self) -> int:
        return int(self.blown.sum())

    def survivor_sup_norms(self) -> np.ndarray:
        """Sup of the Euclidean norm over the grid, survivors only."""
        alive = self.paths.values
        if self.blown.any():
            alive = alive[~self.blown]
        if alive.shape[0] == 0:
            return np.empty(0)
        if alive.shape[2] == 1:
            return np.abs(alive[:, :, 0]).max(axis=1)
        with np.errstate(over="ignore"):
            return np.linalg.norm(alive, axis=2).max(axis=1)


def _check_driver_batch(batch: PathBatch | None, dim: int, grid: TimeGrid, count: int | None, label: str):
    if dim == 0:
        if batch is not None:
            raise DomainError(f"model declares no {label} components but a batch was supplied")
        return count
    if batch is None:
        raise DomainError(f"model declares {dim} {label} component(s) but no batch was supplied")
    if batch.grid != grid:
        raise GridMismatchError(f"{label} batch grid {batch.grid} does not match solve grid {grid}")
    if batch.dim != dim:
        raise DomainError(f"{label} batch has dim {batch.dim}, model declares {dim}")
    if count is not None and batch.count != count:
        raise DomainError(f"driver batches disagree on path count: {batch.count} vs {count}")
    return batch.count


# Steps per time-major block of the Euler loop. Outputs do not depend on it;
# 16 and 256 timed the same as 64, within noise, on the coupled study's
# Euler phase.
_BLOCK_STEPS = 64


# Every copy between the path-major (count, n+1, dim) arrays and a block's
# time-major (steps, count, dim) arrays goes one coordinate at a time: numpy
# runs a transposed 3-D copy with the dim-long last axis as its inner loop,
# and at dim 2 the 2-D copies take about half the time.


def _time_major_increments(values, k0, k1):
    """(k1 - k0, count, dim) contiguous driver increments over steps k0..k1-1."""
    if values is None:
        return None
    out = np.empty((k1 - k0, values.shape[0], values.shape[2]))
    for c in range(values.shape[2]):
        np.subtract(values[:, k0 + 1 : k1 + 1, c].T, values[:, k0:k1, c].T, out=out[:, :, c])
    return out


def _time_major_states(values, k0, k1):
    """(k1 - k0, count, dim) contiguous copy of the states at steps k0..k1-1."""
    out = np.empty((k1 - k0, values.shape[0], values.shape[2]))
    for c in range(values.shape[2]):
        out[:, :, c] = values[:, k0:k1, c].T
    return out


def _euler_loop(model, grid, count, w_values, z_values, x_states=None):
    """Left-point Euler over the grid in time-major blocks of ``_BLOCK_STEPS``.

    Each block copies its driver increments and base states into contiguous
    (steps, count, dim) arrays, hands them to the stage kernel's
    ``prepare`` once, writes its states into one such array and moves them
    into ``out`` with one strided copy per coordinate, so a step makes no
    strided gathers or writes. A finite sum proves the whole state finite,
    so the per-path check runs only when the sum is not; a blown path stays
    NaN and keeps it so. A kernel's increment is a new array, never written
    into here.
    """
    kernel = model.kernel if model.kernel is not None else field_kernel(model)
    n = grid.step_count
    dt = grid.dt
    x0 = model.initial_value
    dim = len(x0)
    out = np.empty((count, n + 1, dim))
    out[:, 0, :] = x0
    blown = np.zeros(count, dtype=bool)
    first_bad = np.full(count, -1, dtype=np.int64)
    state = np.repeat(x0[None, :], count, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _BLOCK_STEPS):
            k1 = min(n, k0 + _BLOCK_STEPS)
            dw = _time_major_increments(w_values, k0, k1)
            dz = _time_major_increments(z_values, k0, k1)
            xs = None if x_states is None else _time_major_states(x_states, k0, k1)
            prepared = kernel.prepare(np.arange(k0, k1) * dt, dt, dw, dz, xs)
            states = np.empty((k1 - k0, count, dim))
            for j in range(k1 - k0):
                state = np.add(state, kernel.increment(prepared, j, state), out=states[j])
                if not math.isfinite(state.sum()):
                    newly_bad = ~blown & ~np.isfinite(state).all(axis=1)
                    if newly_bad.any():
                        first_bad[newly_bad] = k0 + j + 1
                        blown |= newly_bad
                        state[blown] = np.nan
            for c in range(dim):
                out[:, k0 + 1 : k1 + 1, c] = states[:, :, c].T
    return out, blown, first_bad


def _euler_stage(model, grid, count, wiener, rough, x_states=None) -> SolveOutput:
    """Check a stage's driver batches, run the Euler loop, wrap the result."""
    count = _check_driver_batch(wiener, model.driver.wiener_dim, grid, count, "wiener")
    count = _check_driver_batch(rough, model.driver.rough_dim, grid, count, "rough")
    if count is None:
        raise DomainError("at least one driver batch is required")
    w_values = wiener.values if wiener is not None else None
    z_values = rough.values if rough is not None else None
    values, blown, first_bad = _euler_loop(model, grid, count, w_values, z_values, x_states)
    return SolveOutput(PathBatch(grid, values), blown, first_bad, wiener, rough)


def euler_mixed(
    model: ModelSpec,
    grid: TimeGrid,
    wiener: PathBatch | None = None,
    rough: PathBatch | None = None,
) -> SolveOutput:
    """Left-point Euler step of the mixed equation along supplied drivers.

    X_{k+1} = X_k + a(t_k, X_k) dt + b(t_k, X_k) dW_k + c(t_k, X_k) dZ_k,
    evaluated at the left endpoint of every cell for both noise terms.
    """
    model.probe()
    return _euler_stage(model, grid, None, wiener, rough)


def solve_model(model: ModelSpec, grid: TimeGrid, count: int, seed: int) -> SolveOutput:
    """Generate the model's drivers from the seed, then run the Euler scheme."""
    w, z, _, _ = stage_drivers(model, None, grid, count, seed, 0)
    return euler_mixed(model, grid, w, z)


def euler_coupled(
    model_y: CoupledModelSpec,
    grid: TimeGrid,
    base_states: PathBatch,
    wiener: PathBatch | None = None,
    rough: PathBatch | None = None,
) -> SolveOutput:
    """Euler step of the coupled stage along a solved primary-stage batch.

    Y_{k+1} = Y_k + a~(t_k, X_k, Y_k) dt + b~ dW~_k + c~ dZ~_k; the primary
    state enters the coefficients but is never modified.
    """
    if base_states.grid != grid:
        raise GridMismatchError("base state batch must live on the solve grid")
    if base_states.dim != model_y.base_dim:
        raise DomainError(
            f"coupled model reads a base state of dim {model_y.base_dim}, got {base_states.dim}"
        )
    return _euler_stage(model_y, grid, base_states.count, wiener, rough, base_states.values)


def stage_drivers(
    model_x: ModelSpec,
    model_y: CoupledModelSpec | None,
    grid: TimeGrid,
    count: int,
    seed: int,
    path_offset: int,
) -> tuple[PathBatch | None, PathBatch | None, PathBatch | None, PathBatch | None]:
    """(w, z, w_y, z_y): primary drivers, then the coupled stage's.

    The coupled stage reuses the primary batches when it shares drivers and
    draws independent ones otherwise; without a coupled stage w_y and z_y
    are None.
    """
    if model_y is not None:
        if model_y.base_dim != model_x.state_dim:
            raise DomainError(
                f"coupled model reads a base state of dim {model_y.base_dim}, "
                f"primary model has dim {model_x.state_dim}"
            )
        if model_y.share_drivers and (
            (model_y.driver.wiener_dim, model_y.driver.rough_dim, model_y.driver.rough_hurst)
            != (model_x.driver.wiener_dim, model_x.driver.rough_dim, model_x.driver.rough_hurst)
        ):
            raise DomainError("shared drivers require identical driver specs on both stages")
    w, z = generate_drivers(model_x.driver, grid, count, seed, stage="x", path_offset=path_offset)
    if model_y is None:
        return w, z, None, None
    if model_y.share_drivers:
        return w, z, w, z
    w_y, z_y = generate_drivers(model_y.driver, grid, count, seed, stage="y", path_offset=path_offset)
    return w, z, w_y, z_y


def solve_coupled(
    model_x: ModelSpec,
    model_y: CoupledModelSpec,
    grid: TimeGrid,
    seed: int,
    count: int,
) -> tuple[SolveOutput, SolveOutput]:
    """Solve the primary stage, then the coupled stage along its state.

    The coupled stage never feeds back: X is solved completely first, then Y
    along it on the same clock. Drivers for the second stage are independent
    of the first unless the coupled model requests shared ones (the
    linearized sensitivity equation does).
    """
    w, z, w_y, z_y = stage_drivers(model_x, model_y, grid, count, seed, 0)
    out_x = euler_mixed(model_x, grid, w, z)
    out_y = euler_coupled(model_y, grid, out_x.paths, w_y, z_y)
    return out_x, out_y


@dataclass(frozen=True)
class GeometricParams:
    """Constant-coefficient price equation dS = mu S dt + s_W S dW + s_B S dZ."""

    initial_value: float = 1.0
    drift: float = 0.1
    wiener_vol: float = 0.2
    rough_vol: float = 0.3


def closed_form_geometric_batch(
    params: GeometricParams, wiener: PathBatch, rough: PathBatch
) -> PathBatch:
    """S_t = S_0 exp((mu - s_W^2/2) t + s_W W_t + s_B Z_t) on the grid.

    Only the Ito part carries the -s_W^2/2 correction; the Young part obeys
    the first-order chain rule, so the rough volatility enters plainly.
    """
    if wiener.dim != 1 or rough.dim != 1:
        raise DomainError("the closed form needs scalar drivers")
    if wiener.grid != rough.grid:
        raise GridMismatchError("driver batches must share the grid")
    t = wiener.grid.points[None, :]
    log_s = (
        (params.drift - 0.5 * params.wiener_vol**2) * t
        + params.wiener_vol * wiener.values[:, :, 0]
        + params.rough_vol * rough.values[:, :, 0]
    )
    return PathBatch(wiener.grid, params.initial_value * np.exp(log_s))


def check_levels(levels) -> tuple[int, ...]:
    """Grid levels as a strictly increasing tuple of powers of two."""
    levels = tuple(int(n) for n in levels)
    if len(levels) < 1:
        raise DomainError("need at least one grid level")
    if list(levels) != sorted(set(levels)):
        raise DomainError(f"levels must be strictly increasing, got {levels}")
    for n in levels:
        if n < 1 or n & (n - 1):
            raise DomainError(f"levels must be dyadic (powers of two), got {n}")
    return levels


def _restricted(batch: PathBatch | None, stride: int) -> PathBatch | None:
    return None if batch is None else batch.restrict(stride)


def solve_levels(model_x, model_y, levels, count, seed, path_offset, reduce) -> dict:
    """{level: reduce(output)} over dyadic grid levels on common drivers.

    Draws the (w, z, w_y, z_y) drivers of paths ``path_offset`` onwards once,
    with :func:`stage_drivers` on the finest level's grid, and holds the only
    reference to them. Each level solves on their exact restriction, then
    runs the coupled stage when ``model_y`` is given, and reduces the last
    stage's output; only the reductions are kept. Each finest-size array is
    freed after its last reader: a level's output once it is reduced, the
    primary output once its paths reach the coupled stage, and the primary
    drivers before the finest coupled solve. So a chunk holds at most the
    four drivers and the primary states at once.
    """
    finest = levels[-1]
    w, z, w_y, z_y = stage_drivers(
        model_x, model_y, TimeGrid(model_x.horizon, finest), count, seed, path_offset
    )
    results = {}
    for n in levels:
        stride = finest // n
        grid = TimeGrid(model_x.horizon, n)
        out = euler_mixed(model_x, grid, _restricted(w, stride), _restricted(z, stride))
        if model_y is not None:
            base = out.paths
            del out
            if n == finest:
                del w, z
            out = euler_coupled(model_y, grid, base, _restricted(w_y, stride), _restricted(z_y, stride))
            del base
        results[n] = reduce(out)
        del out
    return results


@dataclass(frozen=True)
class ConvergenceRow:
    step_count: int
    mean_abs_terminal_error: float
    mean_rel_terminal_error: float


def geometric_convergence_study(
    params: GeometricParams,
    hurst: float,
    levels,
    paths: int,
    seed: int,
    horizon: float = 1.0,
    workers: int = 1,
) -> list[ConvergenceRow]:
    """Euler terminal error against the closed form over dyadic grid levels.

    Common random numbers: drivers are generated once on the finest grid and
    restricted to the coarser levels, so the rows isolate discretization
    error from sampling noise. Each level's closed-form reference reads its
    own terminal driver values, which are the finest grid's.
    """
    levels = check_levels(levels)
    model = model_zoo(
        "geometric_mixed",
        mu=params.drift,
        sigma_w=params.wiener_vol,
        sigma_b=params.rough_vol,
        initial_value=params.initial_value,
        hurst=hurst,
        horizon=horizon,
    )

    def terminal_errors(out):
        # Every level's grid ends at T and keeps the finest grid's terminal
        # driver values, so this is the finest grid's closed form, bit for bit.
        last = out.paths.grid.step_count
        exact = closed_form_geometric_batch(params, out.wiener.restrict(last), out.rough.restrict(last))
        exact_terminal = exact.values[:, -1, 0]
        return np.abs(out.paths.values[:, -1, 0] - exact_terminal), np.abs(exact_terminal)

    def job(lo, hi):
        return solve_levels(model, None, levels, hi - lo, seed, lo, terminal_errors)

    results = parallel.map_paths(job, paths, workers)
    abs_exact = np.concatenate([r[levels[-1]][1] for r in results])
    rows = []
    for n in levels:
        err = np.concatenate([r[n][0] for r in results])
        rows.append(
            ConvergenceRow(
                step_count=n,
                mean_abs_terminal_error=float(err.mean()),
                mean_rel_terminal_error=float(err.mean() / abs_exact.mean()),
            )
        )
    return rows
