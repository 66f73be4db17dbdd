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
from . import randomness as rnd
from .errors import DomainError, GridMismatchError
from .fbm import generate_fbm, generate_wiener
from .grids import TimeGrid
from .models import CoupledModelSpec, ModelSpec, field_kernel
from .paths import PathBatch

__all__ = [
    "SolveOutput",
    "ConvergenceRow",
    "euler_mixed",
    "euler_coupled",
    "solve_model",
    "solve_coupled",
    "stage_drivers",
    "check_levels",
    "solve_levels",
    "ladder_path_bytes",
    "closed_form_geometric_batch",
    "geometric_convergence_study",
]


@dataclass(frozen=True)
class SolveOutput:
    """Solution batch, each path's first non-finite row or -1, and the drivers used; ``blown`` derives from the row."""

    paths: PathBatch
    first_nonfinite_index: np.ndarray
    wiener: PathBatch | None
    rough: PathBatch | None

    @property
    def blown(self) -> np.ndarray:
        return self.first_nonfinite_index >= 0

    @property
    def blowup_count(self) -> int:
        return int(self.blown.sum())

    def sup_norms(self) -> np.ndarray:
        """Sup of the Euclidean norm over the grid: entry i is path i's, NaN exactly where ``blown``.

        A blown path holds NaN from its first bad row on, and a finite path's
        sup is finite or, when a norm overflows, inf. In dim 1 the sup is
        max(max x, -min x) + 0.0, which turns a -0.0 into abs's 0.0.
        """
        v = self.paths.values
        if v.shape[2] == 1:
            return np.maximum(v[:, :, 0].max(axis=1), -v[:, :, 0].min(axis=1)) + 0.0
        with np.errstate(over="ignore"):
            return np.linalg.norm(v, axis=2).max(axis=1)


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


def _time_major_increments(values, k0, k1, previous):
    """(k1 - k0, count, dim) driver increments over steps k0..k1-1, into ``previous`` if given, or None."""
    if values is not None:
        rows = values.transpose(1, 0, 2)
        return np.subtract(rows[k0 + 1 : k1 + 1], rows[k0:k1], out=None if previous is None else previous[: k1 - k0])


def _euler_loop(model, grid, count, w_values, z_values, x_states=None):
    """Left-point Euler over the grid in time-major blocks of ``_BLOCK_STEPS``.

    States are component-major: one C-contiguous (n+1, dim, count) array,
    returned as its (count, n+1, dim) transposed view, so each step's
    ``state`` is a (count, dim) view whose path axis numpy walks innermost,
    and each step's sum is written straight into its row. Each block hands
    the kernel's ``prepare`` its (steps, count, dim) driver increments, in
    one buffer per driver, and ``xs``, a read-only view of the base states.
    A kernel's increment is never written into here. A non-finite value
    stays so under ``state + increment``, so one finite sum proves a block
    finite; otherwise each newly bad path gets its first non-finite row as
    ``first_bad`` and NaN from that row on, as a per-step check leaves it.
    """
    kernel = model.kernel if model.kernel is not None else field_kernel(model)
    n = grid.step_count
    dt = grid.dt
    store = np.empty((n + 1, len(model.initial_value), count))
    out = store.transpose(0, 2, 1)
    out[0] = model.initial_value
    state = out[0]
    first_bad = np.full(count, -1, dtype=np.int64)
    if x_states is not None:
        base = x_states.transpose(1, 0, 2)
        base.flags.writeable = False
    dw = dz = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _BLOCK_STEPS):
            k1 = min(n, k0 + _BLOCK_STEPS)
            dw = _time_major_increments(w_values, k0, k1, dw)
            dz = _time_major_increments(z_values, k0, k1, dz)
            xs = None if x_states is None else base[k0:k1]
            prepared = kernel.prepare(np.arange(k0, k1) * dt, dt, dw, dz, xs)
            for j in range(k1 - k0):
                state = np.add(state, kernel.increment(prepared, j, state), out=out[k0 + 1 + j])
            rows = store[k0 + 1 : k1 + 1]
            if not math.isfinite(np.add.reduce(rows, axis=None)):
                bad = ~np.isfinite(rows).all(axis=1)
                newly_bad, first = (first_bad < 0) & bad.any(axis=0), bad.argmax(axis=0)
                first_bad[newly_bad] = k0 + 1 + first[newly_bad]
                np.copyto(rows, np.nan, where=(newly_bad & (np.arange(k1 - k0)[:, None] >= first))[:, None, :])
    return store.transpose(2, 0, 1), first_bad


def _check_stage(model, grid, coupled: bool) -> None:
    """Refuse a stage of the wrong kind, naming the solver that takes it, or a grid off its horizon."""
    if isinstance(model, CoupledModelSpec) != coupled:
        if coupled:
            raise DomainError(f"{model.name!r} is a single-stage model: solve it with solve_model")
        raise DomainError(f"{model.name!r} is a coupled model: solve it with solve_coupled")
    if grid.horizon != model.horizon:
        raise GridMismatchError(
            f"grid horizon {grid.horizon} differs from the horizon {model.horizon} of {model.name!r}"
        )


def _euler_stage(model, grid, count, wiener, rough, x_states=None) -> SolveOutput:
    """Check a stage's driver batches, run the Euler loop, wrap the result."""
    count = _check_driver_batch(wiener, model.driver.wiener_dim, grid, count, "wiener")
    count = _check_driver_batch(rough, model.driver.rough_dim, grid, count, "rough")
    w_values = wiener.values if wiener is not None else None
    z_values = rough.values if rough is not None else None
    values, first_bad = _euler_loop(model, grid, count, w_values, z_values, x_states)
    return SolveOutput(PathBatch(grid, values), first_bad, wiener, rough)


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
    _check_stage(model, grid, coupled=False)
    model.probe()
    return _euler_stage(model, grid, None, wiener, rough)


def solve_model(model: ModelSpec, grid: TimeGrid, count: int, seed: int) -> SolveOutput:
    """Generate the model's drivers from the seed, then run the Euler scheme."""
    _check_stage(model, grid, coupled=False)
    w, z, _, _ = stage_drivers(model, grid, count, seed, 0)
    return euler_mixed(model, grid, w, z)


def euler_coupled(
    model: CoupledModelSpec,
    grid: TimeGrid,
    base_states: PathBatch,
    wiener: PathBatch | None = None,
    rough: PathBatch | None = None,
) -> SolveOutput:
    """Euler step of the coupled stage along a solved primary-stage batch.

    Y_{k+1} = Y_k + a~(t_k, X_k, Y_k) dt + b~ dW~_k + c~ dZ~_k; the primary
    state enters the coefficients but is never modified.
    """
    _check_stage(model, grid, coupled=True)
    if base_states.grid != grid:
        raise GridMismatchError("base state batch must live on the solve grid")
    if base_states.dim != model.base.state_dim:
        raise DomainError(
            f"coupled model reads a base state of dim {model.base.state_dim}, got {base_states.dim}"
        )
    return _euler_stage(model, grid, base_states.count, wiener, rough, base_states.values)


def stage_drivers(
    model: ModelSpec | CoupledModelSpec,
    grid: TimeGrid,
    count: int,
    seed: int,
    path_offset: int,
) -> tuple[PathBatch | None, PathBatch | None, PathBatch | None, PathBatch | None]:
    """(w, z, w_y, z_y): primary drivers, then the coupled stage's.

    The primary stage (a coupled model's ``base``) draws from the
    ``WIENER_X`` and ``ROUGH_X`` streams. The coupled stage reuses the
    primary batches when it shares drivers and draws from ``WIENER_Y`` and
    ``ROUGH_Y`` otherwise, so its noise is independent under the same seed;
    a single-stage model's w_y and z_y are None. Each batch is a view of
    C-contiguous (n+1, count, dim) storage, the Euler loop's layout, filled
    block by block with no conversion copy: the Wiener components, then
    rough component j straight into column j.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    def time_major(dim):
        return np.empty((grid.step_count + 1, count, dim)).transpose(1, 0, 2)

    def draw(spec, wiener_role, rough_role):
        wiener = rough = None
        if spec.wiener_dim > 0:
            wiener = generate_wiener(
                grid, spec.wiener_dim, count, seed, stream_role=wiener_role, path_offset=path_offset,
                out=time_major(spec.wiener_dim),
            )
        if spec.rough_dim > 0:
            z = time_major(spec.rough_dim)
            for j, hurst in enumerate(spec.rough_hurst):
                generate_fbm(
                    grid, hurst, count, seed, stream_role=rough_role, component=j, path_offset=path_offset,
                    out=z[:, :, j],
                )
            rough = PathBatch(grid, z)
        return wiener, rough

    coupled = isinstance(model, CoupledModelSpec)
    w, z = draw((model.base if coupled else model).driver, rnd.WIENER_X, rnd.ROUGH_X)
    if not coupled:
        return w, z, None, None
    if model.share_drivers:
        return w, z, w, z
    return (w, z) + draw(model.driver, rnd.WIENER_Y, rnd.ROUGH_Y)


def solve_coupled(
    model: CoupledModelSpec,
    grid: TimeGrid,
    count: int,
    seed: int,
) -> tuple[SolveOutput, SolveOutput]:
    """Solve the primary stage ``model.base``, then the coupled stage along its state.

    The coupled stage never feeds back: X is solved completely first, then Y
    along it on the same clock. Drivers for the second stage are independent
    of the first unless the coupled model requests shared ones (the
    linearized sensitivity equation does).
    """
    _check_stage(model, grid, coupled=True)
    w, z, w_y, z_y = stage_drivers(model, grid, count, seed, 0)
    out_x = euler_mixed(model.base, grid, w, z)
    out_y = euler_coupled(model, grid, out_x.paths, w_y, z_y)
    return out_x, out_y


def _check_geometric(model: ModelSpec) -> None:
    if model.name != "geometric_mixed":
        raise DomainError(f"the closed form holds for 'geometric_mixed' only, got {model.name!r}")


def closed_form_geometric_batch(model: ModelSpec, wiener: PathBatch, rough: PathBatch) -> PathBatch:
    """S_t = S_0 exp((mu - s_W^2/2) t + s_W W_t + s_B Z_t) on the grid.

    ``model`` is a ``geometric_mixed`` spec. Each of its fields is linear
    through the origin, so mu, s_W and s_B are the fields' values at x = 1.
    Only the Ito part carries the -s_W^2/2 correction; the Young part obeys
    the first-order chain rule, so the rough volatility enters plainly.
    """
    _check_geometric(model)
    count = _check_driver_batch(wiener, 1, wiener.grid, None, "wiener")
    _check_driver_batch(rough, 1, wiener.grid, count, "rough")
    _check_stage(model, wiener.grid, coupled=False)
    one = np.ones((1, 1))
    mu = float(model.drift(0.0, one)[0, 0])
    s_w = float(model.wiener(0.0, one)[0, 0, 0])
    s_b = float(model.rough(0.0, one)[0, 0, 0])
    t = wiener.grid.points[None, :]
    log_s = (mu - 0.5 * s_w**2) * t + s_w * wiener.values[:, :, 0] + s_b * rough.values[:, :, 0]
    return PathBatch(wiener.grid, float(model.initial_value[0]) * np.exp(log_s))


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


def solve_levels(model, levels, count, seed, path_offset, reduce) -> dict:
    """{level: reduce(output)} over dyadic grid levels on common drivers.

    Draws the (w, z, w_y, z_y) drivers of paths ``path_offset`` onwards once,
    with :func:`stage_drivers` on the finest level's grid, and holds the only
    reference to them. Each level solves the primary stage (a coupled
    model's ``base``) on their exact restriction, then the coupled stage of
    a coupled model, and reduces the last stage's output to per-path
    arrays, such as :meth:`SolveOutput.sup_norms`; only the reductions are
    kept. Each finest-size array is freed after its last reader: a level's
    output once it is reduced, the primary output once its paths reach the
    coupled stage, and the primary drivers before the finest coupled solve.
    So a chunk holds at most the four drivers and the primary states at
    once. The drivers are written with no conversion copy, so drawing them
    holds at most four finest-size arrays plus one synthesis block's scratch.
    """
    coupled = isinstance(model, CoupledModelSpec)
    primary = model.base if coupled else model
    finest = levels[-1]
    w, z, w_y, z_y = stage_drivers(model, TimeGrid(primary.horizon, finest), count, seed, path_offset)
    results = {}
    for n in levels:
        stride = finest // n
        grid = TimeGrid(primary.horizon, n)
        out = euler_mixed(primary, grid, _restricted(w, stride), _restricted(z, stride))
        if coupled:
            base = out.paths
            del out
            if n == finest:
                del w, z
            out = euler_coupled(model, grid, base, _restricted(w_y, stride), _restricted(z_y, stride))
            del base
        results[n] = reduce(out)
        del out
    return results


# Float64 values per path, in _BLOCK_STEPS-row blocks, that the Euler loop's
# block scratch takes per column: driver increments and a kernel's prepared
# factors. A stochvol chunk measured about seven blocks for its seven columns.
_SCRATCH_BLOCKS = 4


def ladder_path_bytes(model, levels) -> int:
    """Upper bound on the bytes per path of one :func:`solve_levels` chunk, for ``parallel.map_paths``.

    Every finest-level driver and state column of both stages, as if all
    were alive at once, each with ``_SCRATCH_BLOCKS`` blocks of Euler
    scratch. A coarser level's arrays are freed before the next level is
    solved, so they never outgrow the finest level's.
    """
    coupled = isinstance(model, CoupledModelSpec)
    stages = (model.base, model) if coupled else (model,)
    drivers = stages[:1] if coupled and model.share_drivers else stages
    columns = sum(s.state_dim for s in stages) + sum(s.driver.wiener_dim + s.driver.rough_dim for s in drivers)
    return 8 * columns * (check_levels(levels)[-1] + 1 + _SCRATCH_BLOCKS * _BLOCK_STEPS)


@dataclass(frozen=True)
class ConvergenceRow:
    step_count: int
    mean_abs_terminal_error: float
    mean_rel_terminal_error: float


def geometric_convergence_study(
    model: ModelSpec,
    levels,
    paths: int,
    seed: int,
    workers: int = 1,
) -> list[ConvergenceRow]:
    """Euler terminal error of a ``geometric_mixed`` model against its closed form.

    Common random numbers: drivers are generated once on the finest grid and
    restricted to the coarser levels, so the rows isolate discretization
    error from sampling noise. Each level's closed-form reference reads its
    own terminal driver values, which are the finest grid's.
    """
    _check_geometric(model)
    levels = check_levels(levels)

    def terminal_errors(out):
        # Every level's grid ends at T and keeps the finest grid's terminal
        # driver values, so this is the finest grid's closed form, bit for bit.
        last = out.paths.grid.step_count
        exact = closed_form_geometric_batch(model, out.wiener.restrict(last), out.rough.restrict(last))
        exact_terminal = exact.values[:, -1, 0]
        return np.abs(out.paths.values[:, -1, 0] - exact_terminal), np.abs(exact_terminal)

    def job(lo, hi):
        return solve_levels(model, levels, hi - lo, seed, lo, terminal_errors)

    per_level = parallel.map_paths(job, paths, workers, ladder_path_bytes(model, levels))
    abs_exact = per_level[levels[-1]][1]
    return [
        ConvergenceRow(
            step_count=n,
            mean_abs_terminal_error=float(err.mean()),
            mean_rel_terminal_error=float(err.mean() / abs_exact.mean()),
        )
        for n, (err, _) in per_level.items()
    ]
