"""Golden SHA-256 sums of small fixed-seed CLI CSVs.

The output bits depend on the package and also on numpy's Philox ziggurat
normals and its pocketfft FFT, not on scipy. fBm synthesis runs no BLAS,
and the sums hold under one and two OpenBLAS threads. Pinning the CSV
bytes makes any change to a random stream, a study's arithmetic or a
library an explicit event: update the sums only for a change that alters
the outputs on purpose.

Path counts above ``parallel.CHUNK_PATHS`` put two chunks in every sampled
study, so workers 1 and 2 exercise both the serial and the pooled merge.

Every study synthesises fBm by circulant embedding at every n, so the study
sums pin the route that runs at benchmark scale. Only the ``fbm`` case,
with ``method: both``, also pins the Cholesky oracle.
"""

import hashlib

import numpy as np
import pytest

from mixedsde.cli import main

CASES = {
    "check-conditions-A": (
        "check-conditions",
        "model: linear_mixed\nset: A\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "b2282ec0bfa13d578eb49083009f1049b005fdf90f25b364ecc099f781c60142",
    ),
    "check-conditions-B": (
        "check-conditions",
        "model: bounded_trig\nset: B\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "fdf1b6b568f0d2ae1ad0dc0236dec68f6d45cabb877af6f6fb99de35c06de1ed",
    ),
    "check-conditions-C": (
        "check-conditions",
        "model: stochvol\nset: C\nradius: 5.0\nsamples: 1000\nseed: 3\n",
        "19f035fa18405847d2ac85e3c6c7e6da66a47c0ca6799dd16c48044922b28c5e",
    ),
    "moments-stochvol": (
        "moments",
        "model: stochvol\nstatistic: sup\np: [1, 2]\nlevels: [8, 16]\npaths: 2100\nseed: 11\n",
        "716f3876880bc61a26ad473973dfb40a957371c703167f8cc10fca0d2124abde",
    ),
    "moments-malliavin": (
        "moments",
        "model: malliavin_linearized\nstatistic: exp\nc: 0.5\ngamma: [1.0, 1.5]\n"
        "levels: [8, 16]\npaths: 2100\nseed: 12\n",
        "60a33accdfea0428a87c4c13746e37eb2260aeb5de87fe8fadea5e3126c6bfbd",
    ),
    "moments-quadratic_control": (
        "moments",
        "model: quadratic_control\nstatistic: sup\np: [2]\nlevels: [32, 64]\npaths: 2100\nseed: 9\n",
        "02a22ad7adf966944ae17c1027f209e7e5f9c833ae13a97bf7a2954a36f5e058",
    ),
    "boundary": (
        "boundary",
        "model: bounded_trig\ngamma: [0.6, 1.5]\nc: 1.0\nn: 16\npaths: 2100\nseed: 13\n",
        "4486d2ce38d37be0371a59e7e8067977c3cb91f9e1477a2b6a8baaa68074d49a",
    ),
    "fbm": (
        "fbm",
        "hurst: [0.6, 0.8]\nn: 4\npaths: 2100\nmethod: both\nseed: 15\n",
        "f35f34e29e87469a1994e2a02a7cba8a6e1791e6fa3d225163c9aae474bde680",
    ),
    "integrate": (
        "integrate",
        "n: 8\npaths: 2100\nseed: 16\n",
        "375226b19a3928f488892ab24eae15d14e1a435e03ab12ad077018fe6ed2496f",
    ),
    "fernique": (
        "fernique",
        "hurst: 0.75\nmu: 0.6\nn: 16\npaths: 2100\nseed: 17\n",
        "a377991eb5ced976c4c294b02ba6fd11863eda4c871311962db251fb7b4fae39",
    ),
    "solve": (
        "solve",
        "levels: [8, 16]\npaths: 2100\nseed: 14\n",
        "df057e4ac72eb4275368dbf6a7f7b2fdbe6a6dba8fb77c530535e919573056dd",
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
        f"(numpy {np.__version__})"
    )
