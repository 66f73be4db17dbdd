"""Exact synthesis of fractional Brownian motion and Wiener paths.

Two synthesis routes with identical distributions on the grid:

* ``circulant`` — Davies–Harte-style circulant embedding of fractional
  Gaussian noise; O(n log n) per path: a half spectrum, conjugated in place,
  goes through ``irfft(..., norm="forward")``. The default, and the one
  route of every study at every n.
  The embedding eigenvalues are non-negative for fGn; this is still
  verified at runtime and a failure raises rather than silently clipping
  anything beyond rounding noise.
* ``cholesky`` — factor the exact grid covariance; O(n^2) memory, O(n^3)
  setup. Run only where a caller names it: the ``fbm`` command's exactness
  oracle. Factor and product are ``np.einsum`` loops, not BLAS, so the bits
  do not depend on the BLAS thread count.

Both routes and the Wiener synthesis write into ``out=``, in any layout.
A circulant or Wiener block copies its increments in. One pass over the
time rows then sums them, one binary ufunc per row over the whole batch,
which releases the GIL where a block's 2-D cumulative sum would hold it, and
one multiply scales a circulant batch by dt^H. The solver's
``stage_drivers`` hands them the Euler loop's time-major storage.
"""

from __future__ import annotations

import numpy as np

from . import randomness as rnd
from .errors import DomainError, ResourceError, SynthesisError
from .grids import TimeGrid, check_hurst
from .paths import PathBatch

__all__ = [
    "fbm_covariance_matrix",
    "fgn_circulant_eigenvalues",
    "generate_fbm",
    "generate_wiener",
    "batch_path_bytes",
    "CHOLESKY_CAP",
]

CHOLESKY_CAP = 4096
_EIG_TOLERANCE = -1e-9
# Paths per synthesis block. Blocks are aligned to the absolute path index,
# so scratch stays a few MB whatever the batch size, and a path's bits do
# not depend on how a batch was partitioned.
_BLOCK_ROWS = 64


def fbm_covariance_matrix(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Exact (n, n) covariance of B^H over t_1..t_n (t_0 = 0 is degenerate)."""
    h = check_hurst(hurst)
    t = grid.points[1:]
    tt, ss = t[:, None], t[None, :]
    return 0.5 * (tt ** (2 * h) + ss ** (2 * h) - np.abs(tt - ss) ** (2 * h))


def fgn_circulant_eigenvalues(step_count: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the 2n circulant embedding of unit-step fGn covariance."""
    h = check_hurst(hurst)
    k = np.arange(step_count + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.fft(first_row).real


def _blocks(count: int, offset: int):
    """(lo, hi) path-index ranges covering offset..offset+count, cut at multiples of _BLOCK_ROWS."""
    for b0 in range(offset - offset % _BLOCK_ROWS, offset + count, _BLOCK_ROWS):
        yield max(b0, offset), min(b0 + _BLOCK_ROWS, offset + count)


def batch_path_bytes(n: int) -> int:
    """Bytes per path, for ``parallel.map_paths``, of a job that reads one synthesized batch of n steps.

    An upper bound: the batch and one same-size copy made by its reader.
    """
    return 2 * 8 * (n + 1)


def _destination(out, shape):
    """``out`` checked to hold ``shape`` float64 values, or a new array; column 0 zeroed."""
    if shape[0] < 1:
        raise DomainError(f"count must be >= 1, got {shape[0]}")
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64 and out.flags.writeable):
        raise DomainError(f"out must be a writeable float64 array of shape {shape}")
    out[:, 0] = 0.0
    return out


def _prefix_sums(values):
    """Turn the increments in ``values[:, 1:]`` into their running sums, in place.

    The additions are numpy's cumulative sum's, in its order, and the first
    increment is kept as it is (a ``-0.0`` stays ``-0.0``). Each time row is
    one binary ufunc over every path and component, which releases the GIL;
    a 2-D cumulative sum holds it for the whole call.
    """
    rows = np.moveaxis(values, 1, 0)
    for previous, row in zip(rows[1:-1], rows[2:]):
        np.add(previous, row, out=row)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, column by column.

    Every dot product is an ``np.einsum``, which runs no BLAS, so the factor
    has the same bits at any BLAS thread count.
    """
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        row = low[j, :j]
        pivot = a[j, j] - np.einsum("k,k->", row, row)
        if not pivot > 0.0:
            raise SynthesisError(f"covariance is not positive definite: pivot {pivot:.3e} at column {j}")
        low[j, j] = np.sqrt(pivot)
        low[j + 1 :, j] = (a[j + 1 :, j] - np.einsum("ik,k->i", low[j + 1 :, :j], row)) / low[j, j]
    return low


def _check_cholesky_cap(n: int) -> None:
    if n > CHOLESKY_CAP:
        raise ResourceError(
            f"cholesky synthesis is capped at n={CHOLESKY_CAP} (requested {n}); use method='circulant'"
        )


def _fbm_cholesky(grid, hurst, count, seed, tag, offset, out):
    n = grid.step_count
    _check_cholesky_cap(n)
    factor_t = _cholesky(fbm_covariance_matrix(grid, hurst)).T
    out = _destination(out, (count, n + 1))
    scratch = np.empty((_BLOCK_ROWS, n))
    for lo, hi in _blocks(count, offset):
        z = rnd.normal_matrix(seed, tag, n, hi - lo, offset=lo)
        # einsum, not BLAS: a row's bits depend neither on the thread count
        # nor on how many rows share the product
        out[lo - offset : hi - offset, 1:] = np.einsum("pk,kj->pj", z, factor_t, out=scratch[: hi - lo])
    return out


def _fbm_circulant(grid, hurst, count, seed, tag, offset, out):
    n = grid.step_count
    lam = fgn_circulant_eigenvalues(n, hurst)
    if lam.min() < _EIG_TOLERANCE:
        raise SynthesisError(
            f"circulant embedding failed: min eigenvalue {lam.min():.3e} < {_EIG_TOLERANCE}"
            f" for n={n}, H={hurst}"
        )
    weights = np.sqrt(np.clip(lam, 0.0, None) / (2 * (2 * n)))
    scale = grid.dt ** check_hurst(hurst)
    out = _destination(out, (count, n + 1))
    # First half (0..n) of each path's Hermitian spectrum: columns 0 and n are
    # real, columns 1..n-1 take the normals in (re, im) pairs. The inverse
    # real FFT supplies the conjugate half, so it is never written.
    buffer = np.empty((_BLOCK_ROWS, n + 1), dtype=np.complex128)
    for lo, hi in _blocks(count, offset):
        z = rnd.normal_matrix(seed, tag, 2 * n, hi - lo, offset=lo)
        spectrum = buffer[: hi - lo]
        spectrum[:, 0] = z[:, 0] * np.sqrt(2.0)
        spectrum[:, n] = z[:, 1] * np.sqrt(2.0)
        spectrum[:, 1:n] = z[:, 2:].view(np.complex128)
        spectrum *= weights[: n + 1]
        # numpy's Hermitian FFT is exactly this, bit for bit, with a conjugated copy
        np.conjugate(spectrum, out=spectrum)
        out[lo - offset : hi - offset, 1:] = np.fft.irfft(spectrum, n=2 * n, axis=1, norm="forward")[:, :n]
    _prefix_sums(out)
    out[:, 1:] *= scale
    return out


def generate_fbm(
    grid: TimeGrid,
    hurst: float,
    count: int,
    seed: int,
    method: str = "circulant",
    *,
    stream_role: int = rnd.ROUGH_X,
    component: int = 0,
    path_offset: int = 0,
    out: np.ndarray | None = None,
) -> PathBatch:
    """``count`` independent fBm paths started at 0, exact on the grid.

    Deterministic given (seed, method, grid, H): path i is produced from the
    counter-based stream keyed by (seed, stream tag, path_offset + i), so any
    partition of the batch across workers yields identical values. The two
    methods share the law, not the realizations. The values go into ``out``,
    a (count, n+1) view in any layout, when it is given.
    """
    tag = rnd.stream_tag(stream_role, component)
    synthesis = {"cholesky": _fbm_cholesky, "circulant": _fbm_circulant}.get(method)
    if synthesis is None:
        raise DomainError(f"unknown synthesis method {method!r}")
    return PathBatch(grid, synthesis(grid, hurst, count, seed, tag, path_offset, out))


def generate_wiener(
    grid: TimeGrid,
    dim: int,
    count: int,
    seed: int,
    *,
    stream_role: int = rnd.WIENER_X,
    path_offset: int = 0,
    out: np.ndarray | None = None,
) -> PathBatch:
    """Standard Wiener batch of independent N(0, T/n) increments, into ``out`` when given."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    n = grid.step_count
    root_dt = np.sqrt(grid.dt)
    out = _destination(out, (count, n + 1, dim))
    for component in range(dim):
        tag = rnd.stream_tag(stream_role, component)
        for lo, hi in _blocks(count, path_offset):
            z = rnd.normal_matrix(seed, tag, n, hi - lo, offset=lo)
            z *= root_dt
            out[lo - path_offset : hi - path_offset, 1:, component] = z
    _prefix_sums(out)
    return PathBatch(grid, out)

