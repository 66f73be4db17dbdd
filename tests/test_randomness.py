"""Per-path streams: SFC64 generators keyed by a Philox hash of (seed, tag, path)."""

import sys
import threading

import numpy as np
import pytest
from numpy.random import PCG64, SFC64, Generator, Philox

from mixedsde import DomainError
from mixedsde import randomness as rnd


def _documented_stream(seed, index, tag):
    """The recipe in ``path_stream``'s docstring, from numpy's public API."""
    a, b, c = Philox(key=(seed << 64) | (tag << 32) | index).random_raw(3)
    sfc = SFC64(0)
    state = np.array([a, b, c, 1], dtype=np.uint64)
    sfc.state = {"bit_generator": "SFC64", "state": {"state": state}, "has_uint32": 0, "uinteger": 0}
    sfc.random_raw(12)
    return Generator(sfc)


@pytest.mark.parametrize("seed, index, tag", [
    (0, 0, 0),
    (101, 7, rnd.stream_tag(rnd.ROUGH_X, 1)),
    (2**64 - 1, 2**32 - 1, rnd.stream_tag(rnd.VALIDATOR, 2**16 - 1)),
])
def test_path_stream_is_the_documented_recipe(seed, index, tag):
    want = _documented_stream(seed, index, tag)
    want_state = want.bit_generator.state["state"]["state"].tolist()
    want_normals = want.standard_normal(1000)
    used = rnd.path_stream(5, 3, 1)
    used.standard_normal(17)
    for got in (rnd.path_stream(seed, index, tag), rnd.path_stream(seed, index, tag, reuse=used)):
        assert got.bit_generator.state["state"]["state"].tolist() == want_state
        assert np.array_equal(got.standard_normal(1000), want_normals)


def test_concurrent_normal_matrices_equal_the_serial_ones():
    # More threads than cores and a short switch interval, so that threads
    # keying streams at once would interleave on any shared hash state.
    jobs = [(seed, rnd.stream_tag(role, j)) for seed in (3, 4) for role in (rnd.ROUGH_X, rnd.WIENER_Y) for j in (0, 1)]
    serial = {job: rnd.normal_matrix(*job, 64, 200) for job in jobs}
    got = {}

    def work(job):
        for _ in range(5):
            got.setdefault(job, []).append(rnd.normal_matrix(*job, 64, 200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for job in jobs:
        assert len(got[job]) == 5
        assert all(np.array_equal(z, serial[job]) for z in got[job]), job


def _assert_uncorrelated(a, b):
    # Independent N(0, 1) rows: each row's mean of a*b has sd 1/sqrt(4096)
    # and the pooled mean 1/sqrt(256 * 4096). Bounds at 6 sd: the chance
    # that any of the 257 fails for independent streams is below 1e-6.
    rows, draws = a.shape
    per_row = np.einsum("ij,ij->i", a, b) / draws
    assert np.abs(per_row).max() < 6 / np.sqrt(draws)
    assert abs(per_row.mean()) < 6 / np.sqrt(rows * draws)


def test_neighbouring_streams_are_uncorrelated():
    rows, draws, seed = 256, 4096, 101
    x = rnd.normal_matrix(seed, rnd.stream_tag(rnd.ROUGH_X, 0), draws, rows + 1)
    _assert_uncorrelated(x[:-1], x[1:])  # adjacent path indices
    x = x[:-1]
    for tag in (rnd.stream_tag(rnd.ROUGH_X, 1), rnd.stream_tag(rnd.ROUGH_Y, 0), rnd.stream_tag(rnd.WIENER_X, 0)):
        # another component, the same component in stage y, another role
        _assert_uncorrelated(x, rnd.normal_matrix(seed, tag, draws, rows))
    _assert_uncorrelated(x, rnd.normal_matrix(seed + 1, rnd.stream_tag(rnd.ROUGH_X, 0), draws, rows))
    w_x = rnd.normal_matrix(seed, rnd.stream_tag(rnd.WIENER_X, 0), draws, rows)
    _assert_uncorrelated(w_x, rnd.normal_matrix(seed, rnd.stream_tag(rnd.WIENER_Y, 0), draws, rows))


@pytest.mark.parametrize("reuse", [Generator(Philox(0)), Generator(PCG64(0)), SFC64(0), object()])
def test_reuse_must_be_an_sfc64_generator(reuse):
    with pytest.raises(DomainError, match="SFC64"):
        rnd.path_stream(1, 0, rnd.stream_tag(rnd.ROUGH_X), reuse=reuse)
