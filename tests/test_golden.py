"""Golden SHA-256 sums of small fixed-seed CLI CSVs.

The output bits depend on the package and also on numpy's FFT and linear
algebra and scipy's ``ndtri``. Pinning the CSV bytes makes any change to a
random stream, a study's arithmetic or a library an explicit event: update
the sums only for a change that alters the outputs on purpose.

Path counts above ``parallel.CHUNK_PATHS`` put two chunks in every sampled
study, so workers 1 and 2 exercise both the serial and the pooled merge.
"""

import hashlib

import numpy as np
import pytest
import scipy

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
        "26fdf304c51f12150fdcacfe523e29bc29b232b46fd7f59a046f6c5139bdceba",
    ),
    "moments-malliavin": (
        "moments",
        "model: malliavin_linearized\nstatistic: exp\nc: 0.5\ngamma: [1.0, 1.5]\n"
        "levels: [8, 16]\npaths: 2100\nseed: 12\n",
        "4164a8f17e6a8ba07c636ade3efe49879dcfbbd4ff5ccf1b96a9881fb2222b71",
    ),
    "boundary": (
        "boundary",
        "model: bounded_trig\ngamma: [0.6, 1.5]\nc: 1.0\nn: 16\npaths: 2100\nseed: 13\n",
        "a2ec596cbab76ad03cf8ef37392862035ed933ac102ba0739ecc71e647b345fe",
    ),
    "fbm": (
        "fbm",
        "hurst: [0.6, 0.8]\nn: 4\npaths: 2100\nmethod: both\nseed: 15\n",
        "ec45a705fc1b8f37aead96b08e8b476cb62f1a7a30b460a37079638e5a576c60",
    ),
    "integrate": (
        "integrate",
        "n: 8\npaths: 2100\nseed: 16\n",
        "b62b07711e0a39f3668c1e4d8cb507e34f032bdb00fb5fdc1a7077130a16b9cb",
    ),
    "fernique": (
        "fernique",
        "hurst: 0.75\nmu: 0.6\nn: 16\npaths: 2100\nseed: 17\n",
        "cc021d0d801283a51b7c9aa2ccb8e40f33123b000d8711c4b75af74804ac287f",
    ),
    "solve": (
        "solve",
        "levels: [8, 16]\npaths: 2100\nseed: 14\n",
        "45060053708a32ba75ef39b1a8182977b7811d0fa3674ee987c716c868fcd973",
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
        f"(numpy {np.__version__}, scipy {scipy.__version__})"
    )
