"""Golden SHA-256 sums of fixed-seed layer outputs.

``tests/test_golden.py`` pins whole CLI CSVs; these sums pin the arrays
underneath them: both fBm synthesis methods, Wiener synthesis, and the
Euler scheme for a mixed and a coupled stage, blowup bookkeeping included.
A failure names the layer whose bits moved. The bits depend on numpy's FFT
and linear algebra and on scipy's ``ndtri``, so update a sum only for a
change that alters that layer's output on purpose.

The Euler grids have 200 steps, which is not a multiple of the solver's
block length, so the sums also cover a partial last block.
"""

import hashlib

import numpy as np
import pytest
import scipy

from mixedsde import TimeGrid, euler_mixed, generate_drivers, generate_fbm, generate_wiener, model_zoo
from mixedsde.solver import euler_coupled

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
    w, z = generate_drivers(model.driver, grid, PATHS, seed=24)
    return _solution(euler_mixed(model, grid, w, z))


def _euler_stochvol():
    model_x, model_y = model_zoo("stochvol")
    grid = TimeGrid(1.0, 200)
    w, z = generate_drivers(model_x.driver, grid, PATHS, seed=25)
    base = euler_mixed(model_x, grid, w, z)
    w_y, z_y = generate_drivers(model_y.driver, grid, PATHS, seed=25, stage="y")
    return _solution(base) + _solution(euler_coupled(model_y, grid, base.paths, w_y, z_y))


CASES = {
    "fbm-cholesky": (_fbm_cholesky, "c603ff857820c971c9bf37b91a56f09e347ca17382d6d3c96c02f473b2f92e5b"),
    "fbm-circulant": (_fbm_circulant, "2ae8662a29d3dcb0d7314c4d0dadfc54e2857946a0f15de087c1024633a64f33"),
    "wiener": (_wiener, "10fe4d9d5442168064edcca732bf043cb8859bcf3f2b48f34f49903a68fa5cf5"),
    "euler-bounded_trig-d2": (_euler_bounded_trig, "7d0e27f8f2d662070b11289e028fd2d4767f217dd2a7a752bab092b6bac869e7"),
    "euler-stochvol-coupled": (_euler_stochvol, "c4936f0f60c530ddd39aa0f3df966b13c95b95c5e0bcb97c731169e0c750ff77"),
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
        f"(numpy {np.__version__}, scipy {scipy.__version__})"
    )
