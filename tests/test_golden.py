"""Golden SHA-256 sums of small fixed-seed CLI CSVs.

The output bits depend on the package and also on numpy's ziggurat normals,
drawn from SFC64 streams keyed by a Philox hash, and its pocketfft FFT, not
on scipy. fBm synthesis runs no BLAS. The ``fbm`` case's sample
covariance is one BLAS product, ``v.T @ v`` over all paths once the chunks
are joined; its sum, like every other, holds under one and two OpenBLAS
threads. Pinning the CSV bytes makes any change to a random stream, a
study's arithmetic or a library an explicit event: update the sums only
for a change that alters the outputs on purpose.

Path counts above 2,048 put two chunks in every sampled study, because
these small configs' footprints leave ``parallel.chunk_paths`` at
``parallel.CHUNK_PATHS``; so workers 1 and 2 exercise both the serial and
the pooled join.

Every study synthesises fBm by circulant embedding at every n, so the study
sums pin the route that runs at benchmark scale. Only the ``fbm`` case,
with ``method: both``, also pins the Cholesky oracle.
"""

import hashlib

import pytest

from mixedsde.cli import main

from conftest import numpy_dispatch

CASES = {
    "check-conditions-A": (
        "check-conditions",
        "model: linear_mixed\nset: A\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "bfd71bd649320a169ed42bc792d587776728e7922f9e43a7523fe3199a46775f",
    ),
    "check-conditions-B": (
        "check-conditions",
        "model: bounded_trig\nset: B\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "91f4da2933143c4bb2004529b09cb18fde8f018b8e973decd7d10069b882087d",
    ),
    "check-conditions-C": (
        "check-conditions",
        "model: stochvol\nset: C\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "a1f55b4ca9d1d64823de43f67cde25f7d6b2a3a805f4183bd6ce926866a6b57a",
    ),
    "moments-stochvol": (
        "moments",
        "model: stochvol\nstatistic: sup\np: [1, 2]\nlevels: [8, 16]\npaths: 2100\nseed: 11\n",
        "5781bc805b7d0a3861d17265028f8df3e32d2dc528bcf5769f6bf5781e484950",
    ),
    "moments-malliavin": (
        "moments",
        "model: malliavin_linearized\nstatistic: exp\nc: 0.5\ngamma: [1.0, 1.5]\n"
        "levels: [8, 16]\npaths: 2100\nseed: 12\n",
        "14d41a822be3dd9251e3a25adda70b909a72914be79d3a38081070eaa279d992",
    ),
    "moments-quadratic_control": (
        "moments",
        "model: quadratic_control\nstatistic: sup\np: [2]\nlevels: [32, 64]\npaths: 2100\nseed: 9\n",
        "1bcb468fcf563f5c7b7571b967d1247004294dc1a235722b8be2c49d15bf6305",
    ),
    "moments-quadratic_control-finite": (
        "moments",
        "model: quadratic_control\nstatistic: sup\np: [0.5, 1]\nlevels: [32, 64]\npaths: 2100\nseed: 9\n",
        "16c7a233a844265277a902b14969f97732b25c5cd2fbb6b54e6ce6ca321c92dd",
    ),
    "moments-exp-one-level": (
        "moments",
        "model: bounded_trig\nstatistic: exp\nc: 1.0\ngamma: [0.6, 1.5]\nlevels: [16]\npaths: 2100\nseed: 13\n",
        "f964df7c3e319ee5dd6fab9b2fd23a71960b73de13556e5cc4a285a211b8d963",
    ),
    "fbm": (
        "fbm",
        "hurst: [0.6, 0.8]\nn: 4\npaths: 2100\nmethod: both\nseed: 15\n",
        "69e5a8cdcf27ade169ee701e1f71c98222bd6c4bb0094ccd44647c34ec1a3c0a",
    ),
    "integrate": (
        "integrate",
        "n: 8\npaths: 2100\nseed: 16\n",
        "0ecec82ae49ec41fade8f2fadf45d727c600ce229e7a4f4a34f28ec1999e2e13",
    ),
    "fernique": (
        "fernique",
        "hurst: 0.75\nmu: 0.6\nn: 16\npaths: 2100\nseed: 17\n",
        "43d99a47b0b9bea3613f08d79aac7de467865e494fcea531c54f6717df369714",
    ),
    "solve": (
        "solve",
        "levels: [8, 16]\npaths: 2100\nseed: 14\n",
        "27e6183b8626a314592d65094422e87c51869904c1b153ec24864d6b1c57601f",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_matches_golden_sha256(tmp_path, case, workers):
    command, body, expected = CASES[case]
    config = tmp_path / "case.cfg"
    config.write_text(body)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--workers", str(workers)]) == 0
    digest = hashlib.sha256((out / f"{command.replace('-', '_')}.csv").read_bytes()).hexdigest()
    assert digest == expected, (
        f"{case} CSV sha256 {digest} != golden {expected} "
        f"({numpy_dispatch()})"
    )
