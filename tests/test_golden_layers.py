"""Golden SHA-256 sums of fixed-seed layer outputs.

``tests/test_golden.py`` pins whole CLI CSVs; these sums pin the arrays
underneath them: both fBm synthesis methods, Wiener synthesis, and the
Euler scheme for a mixed and a coupled stage, blowup bookkeeping included.
A failure names the layer whose bits moved. The bits depend on numpy's
ziggurat normals, drawn from SFC64 streams keyed by a Philox hash, and its
pocketfft FFT, not on scipy. fBm synthesis runs no BLAS, and the sums hold
under one and two OpenBLAS threads. Update a sum only for a change that
alters that layer's output on purpose.

The Euler grids have 200 steps, which is not a multiple of the solver's
block length, so the sums also cover a partial last block. Their drivers
come from ``stage_drivers``, whose rough components are circulant
embedding fBm, the route every study runs; ``fbm-cholesky`` pins the
Cholesky oracle, which only the ``fbm`` command runs.
"""

import hashlib

import numpy as np
import pytest

from mixedsde import TimeGrid, euler_mixed, generate_fbm, generate_wiener, model_zoo, stage_drivers
from mixedsde.solver import euler_coupled

from conftest import numpy_dispatch

PATHS = 300


def _fbm_cholesky():
    return [generate_fbm(TimeGrid(1.0, 64), 0.75, PATHS, seed=21, method="cholesky").values]


def _fbm_circulant():
    return [generate_fbm(TimeGrid(1.0, 256), 0.7, PATHS, seed=22, method="circulant").values]


def _wiener():
    return [generate_wiener(TimeGrid(1.0, 128), 2, PATHS, seed=23).values]


def _solution(out):
    return [out.paths.values, out.blown, out.first_nonfinite_index]


def _euler_bounded_trig():
    model = model_zoo("bounded_trig", state_dim=2, wiener_dim=2, rough_dim=1, initial_value=[0.5, -0.3])
    grid = TimeGrid(1.0, 200)
    w, z, _, _ = stage_drivers(model, grid, PATHS, 24, 0)
    return _solution(euler_mixed(model, grid, w, z))


def _euler_stochvol():
    model_y = model_zoo("stochvol")
    model_x = model_y.base
    grid = TimeGrid(1.0, 200)
    w, z, w_y, z_y = stage_drivers(model_y, grid, PATHS, 25, 0)
    base = euler_mixed(model_x, grid, w, z)
    return _solution(base) + _solution(euler_coupled(model_y, grid, base.paths, w_y, z_y))


CASES = {
    "fbm-cholesky": (_fbm_cholesky, "93ff58bc0d75fa04bae5ed78f80f80c57e7c2dca3c6646563e2155f8ec99240b"),
    "fbm-circulant": (_fbm_circulant, "4b72852c3a9605a8d164f1a86154f020a1ba29ce10be2e16636fc9eeec437907"),
    "wiener": (_wiener, "4028dc9f378fcef01a9ee62924fd877b02897d9ab8bc91a4f312558a8b37e461"),
    "euler-bounded_trig-d2": (_euler_bounded_trig, "42d61c9c83e53e6df30e055d8476806ba427fe19707ac71708d882a75fd450ae"),
    "euler-stochvol-coupled": (_euler_stochvol, "e686e51878a5fd581c724fdef72e207055a47b59da40d962f384a6666848d37a"),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_layer_output_matches_golden_sha256(case):
    build, expected = CASES[case]
    digest = _digest(build())
    assert digest == expected, (
        f"{case} sha256 {digest} != golden {expected} "
        f"({numpy_dispatch()})"
    )
