import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsde import (
    CoefficientField,
    CoupledModelSpec,
    DomainError,
    DriverSpec,
    PathBatch,
    ResourceError,
    SynthesisError,
    TimeGrid,
    fbm_covariance_matrix,
    generate_fbm,
    generate_wiener,
    model_zoo,
    stage_drivers,
)
from mixedsde import fbm, randomness as rnd
from mixedsde.fbm import _blocks, _cholesky, _prefix_sums, fgn_circulant_eigenvalues

from conftest import sample_cov_se


# ---------------------------------------------------------------- covariance


def test_covariance_rejects_bad_hurst():
    for h in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            fbm_covariance_matrix(TimeGrid(1.0, 2), h)


def test_covariance_at_equal_times_is_variance():
    # the diagonal entry at t is the variance t^2H
    for horizon, hurst in ((1.0, 0.75), (2.0, 0.75), (0.5, 0.3)):
        cov = fbm_covariance_matrix(TimeGrid(horizon, 4), hurst)
        t = TimeGrid(horizon, 4).points[1:]
        np.testing.assert_allclose(np.diag(cov), t ** (2 * hurst))


def test_covariance_brownian_case_is_min():
    # at H = 1/2 every entry is min(t, s)
    for horizon, n in ((2.0, 2), (0.8, 8)):
        grid = TimeGrid(horizon, n)
        t = grid.points[1:]
        np.testing.assert_allclose(fbm_covariance_matrix(grid, 0.5), np.minimum.outer(t, t))


def test_covariance_direct_evaluation():
    # Cov(1, 0.5) at H = 0.75: (1 + 0.5^1.5 - 0.5^1.5) / 2
    got = fbm_covariance_matrix(TimeGrid(1.0, 2), 0.75)
    assert got[0, 1] == pytest.approx(0.5)
    assert got[1, 0] == pytest.approx(0.5)


def test_covariance_matrix_single_point():
    got = fbm_covariance_matrix(TimeGrid(1.0, 1), 0.6)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.0)


def test_covariance_matrix_brownian():
    got = fbm_covariance_matrix(TimeGrid(1.0, 2), 0.5)
    np.testing.assert_allclose(got, [[0.5, 0.5], [0.5, 1.0]])


def test_covariance_matrix_direct_formula():
    got = fbm_covariance_matrix(TimeGrid(1.0, 2), 0.75)
    assert got[0, 0] == pytest.approx(0.5**1.5)
    assert got[0, 1] == pytest.approx(0.5)
    assert got[1, 1] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    horizon=st.floats(min_value=0.1, max_value=5.0),
    hurst=st.floats(min_value=0.05, max_value=0.95),
)
def test_covariance_matrix_symmetric_psd(n, horizon, hurst):
    cov = fbm_covariance_matrix(TimeGrid(horizon, n), hurst)
    np.testing.assert_allclose(cov, cov.T, rtol=0, atol=1e-12)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() >= -1e-10 * max(eig.max(), 1e-300)


def test_circulant_embedding_eigenvalues_nonnegative():
    # studies synthesise by circulant embedding at every n; every n below
    # 512 at Hurst values across (0, 1), which the fbm, integrate and
    # fernique commands accept
    for hurst in (0.01, 0.25, 0.5, 0.55, 0.75, 0.95, 0.99):
        for n in range(1, 512):
            lam = fgn_circulant_eigenvalues(n, hurst)
            assert lam.min() > -1e-9, (n, hurst, lam.min())


# ---------------------------------------------------------------- generation


def test_wiener_increments_have_brownian_variance():
    grid = TimeGrid(2.0, 64)
    batch = generate_wiener(grid, 1, 4000, seed=11)
    inc = np.diff(batch.values[:, :, 0], axis=1)
    var = inc.var()
    expected = grid.dt
    se = expected * np.sqrt(2.0 / inc.size)
    assert abs(var - expected) < 4 * se


def test_wiener_terminal_variance():
    grid = TimeGrid(1.5, 32)
    batch = generate_wiener(grid, 1, 4000, seed=12)
    terminal = batch.values[:, -1, 0]
    se = grid.horizon * np.sqrt(2.0 / 4000)
    assert abs(terminal.var() - grid.horizon) < 4 * se


def test_wiener_single_step_is_single_gaussian():
    grid = TimeGrid(0.7, 1)
    batch = generate_wiener(grid, 1, 2000, seed=13)
    assert np.all(batch.values[:, 0, 0] == 0.0)
    xi = batch.values[:, 1, 0]
    se = grid.horizon * np.sqrt(2.0 / 2000)
    assert abs(xi.var() - 0.7) < 4 * se


def test_wiener_coordinates_independent():
    batch = generate_wiener(TimeGrid(1.0, 16), 3, 4000, seed=14)
    terminal = batch.values[:, -1, :]
    for i in range(3):
        for j in range(i + 1, 3):
            cov = np.mean(terminal[:, i] * terminal[:, j])
            se = 1.0 / np.sqrt(4000)
            assert abs(cov) < 4 * se


def test_fbm_brownian_special_case_increments():
    grid = TimeGrid(1.0, 64)
    batch = generate_fbm(grid, 0.5, 3000, seed=15, method="circulant")
    inc = np.diff(batch.values[:, :, 0], axis=1)
    se = grid.dt * np.sqrt(2.0 / inc.size)
    assert abs(inc.var() - grid.dt) < 4 * se
    # increments at different steps uncorrelated for H = 1/2
    corr = np.mean(inc[:, :-1] * inc[:, 1:]) / grid.dt
    assert abs(corr) < 4 / np.sqrt(inc[:, 1:].size)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_fbm_sample_covariance_matches_exact(method):
    grid = TimeGrid(1.0, 32)
    count = 10_000
    batch = generate_fbm(grid, 0.75, count, seed=2024, method=method)
    values = batch.values[:, 1:, 0]
    sample = values.T @ values / count
    exact = fbm_covariance_matrix(grid, 0.75)
    dev = np.abs(sample - exact) / sample_cov_se(exact, count)
    assert dev.max() < 4.0


def test_methods_share_the_law_not_realizations():
    grid = TimeGrid(1.0, 16)
    count = 6000
    chol = generate_fbm(grid, 0.8, count, seed=31, method="cholesky").values[:, 1:, 0]
    circ = generate_fbm(grid, 0.8, count, seed=31, method="circulant").values[:, 1:, 0]
    assert not np.array_equal(chol, circ)
    exact = fbm_covariance_matrix(grid, 0.8)
    se = sample_cov_se(exact, count)
    diff = np.abs(chol.T @ chol / count - circ.T @ circ / count)
    assert (diff < 4 * np.sqrt(2.0) * se).all()


def test_generation_is_bit_reproducible():
    grid = TimeGrid(1.0, 128)
    a = generate_fbm(grid, 0.7, 50, seed=99, method="circulant")
    b = generate_fbm(grid, 0.7, 50, seed=99, method="circulant")
    assert np.array_equal(a.values, b.values)
    w1 = generate_wiener(grid, 2, 50, seed=99)
    w2 = generate_wiener(grid, 2, 50, seed=99)
    assert np.array_equal(w1.values, w2.values)


def test_path_depends_only_on_seed_and_index():
    grid = TimeGrid(1.0, 64)
    big = generate_fbm(grid, 0.75, 10, seed=5, method="circulant")
    small = generate_fbm(grid, 0.75, 3, seed=5, method="circulant")
    assert np.array_equal(big.values[:3], small.values)
    offset = generate_fbm(grid, 0.75, 2, seed=5, method="circulant", path_offset=1)
    assert np.array_equal(big.values[1:3], offset.values)


def test_distinct_seeds_give_distinct_paths():
    grid = TimeGrid(1.0, 32)
    a = generate_fbm(grid, 0.75, 5, seed=1)
    b = generate_fbm(grid, 0.75, 5, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_stationary_increments_variance_constant_in_t():
    grid = TimeGrid(1.0, 64)
    hurst = 0.7
    batch = generate_fbm(grid, hurst, 6000, seed=16, method="circulant")
    lag = 8
    expected = (lag * grid.dt) ** (2 * hurst)
    se = expected * np.sqrt(2.0 / 6000)
    for start in (0, 13, 29, 56 - lag):
        inc = batch.values[:, start + lag, 0] - batch.values[:, start, 0]
        assert abs(inc.var() - expected) < 4 * se


def test_self_similarity_variance_scaling():
    grid = TimeGrid(1.0, 64)
    hurst = 0.75
    batch = generate_fbm(grid, hurst, 6000, seed=17, method="circulant")
    for k in (8, 32, 64):
        t = k * grid.dt
        expected = t ** (2 * hurst)
        se = expected * np.sqrt(2.0 / 6000)
        assert abs(batch.values[:, k, 0].var() - expected) < 4 * se


def test_paths_start_at_zero_and_are_finite():
    batch = generate_fbm(TimeGrid(1.0, 64), 0.9, 100, seed=18)
    assert np.isfinite(batch.values).all()
    assert np.all(batch.values[:, 0, :] == 0.0)


def test_cholesky_cap_enforced():
    with pytest.raises(ResourceError):
        generate_fbm(TimeGrid(1.0, 8192), 0.75, 1, seed=1, method="cholesky")


def test_unknown_method_rejected():
    with pytest.raises(DomainError):
        generate_fbm(TimeGrid(1.0, 16), 0.75, 1, seed=1, method="hosking")


# ---------------------------------------------------------------- driver spec


def test_driver_spec_validation():
    spec = DriverSpec(1, 2, (0.75, 0.8))
    assert spec.holder_order == pytest.approx(0.74)
    with pytest.raises(DomainError):
        DriverSpec(0, 0)
    with pytest.raises(DomainError):
        DriverSpec(1, 1, (0.4,))  # rough component at H <= 1/2
    with pytest.raises(DomainError):
        DriverSpec(1, 1, (0.75,), holder_order=0.8)  # mu >= H
    with pytest.raises(DomainError):
        DriverSpec(1, 1, (0.75,), holder_order=0.4)  # mu <= 1/2


# One input each that a grid, a driver spec, a batch or a synthesis routine refuses, and the message.
SHAPE_REFUSALS = {
    "grid-horizon-0": (lambda: TimeGrid(0.0, 4), "horizon must be a positive finite real, got 0.0"),
    "grid-steps-0": (lambda: TimeGrid(1.0, 0), "step_count must be >= 1, got 0"),
    "spec-wiener_dim-negative": (lambda: DriverSpec(-1, 1, (0.75,)), "driver dimensions must be non-negative"),
    "spec-hurst-length": (lambda: DriverSpec(1, 2, (0.75,)), "rough_hurst has 1 entries for rough_dim=2"),
    "spec-holder_order-without-rough": (lambda: DriverSpec(1, 0, (), holder_order=0.6),
                                        "holder_order is meaningless without rough components"),
    "batch-shape": (lambda: PathBatch(TimeGrid(1.0, 8), np.zeros((2, 8))),
                    "batch values must have shape (count, 9, dim), got (2, 8, 1)"),
    "fbm-count-0": (lambda: generate_fbm(TimeGrid(1.0, 8), 0.75, 0, seed=1), "count must be >= 1, got 0"),
    "wiener-dim-0": (lambda: generate_wiener(TimeGrid(1.0, 8), 0, 2, seed=1), "dim must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_REFUSALS))
def test_bad_grids_specs_batches_and_counts_are_refused(case):
    build, message = SHAPE_REFUSALS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


def test_a_negative_circulant_eigenvalue_fails_synthesis(monkeypatch):
    monkeypatch.setattr(fbm, "fgn_circulant_eigenvalues", lambda n, hurst: np.full(2 * n, -1.0))
    with pytest.raises(SynthesisError, match=re.escape("min eigenvalue -1.000e+00 < -1e-09 for n=8, H=0.75")):
        generate_fbm(TimeGrid(1.0, 8), 0.75, 2, seed=1)


def test_rough_components_follow_their_own_hurst():
    grid = TimeGrid(1.0, 32)
    model = model_zoo("linear_mixed", wiener_dim=0, rough_dim=2, hurst=[0.6, 0.9])
    _, z, _, _ = stage_drivers(model, grid, 6000, 19, 0)
    for j, hurst in enumerate((0.6, 0.9)):
        var = z.values[:, -1, j].var()
        se = np.sqrt(2.0 / 6000)
        assert abs(var - 1.0) < 4 * se  # T = 1: variance T^{2H} = 1 for both
        mid = z.values[:, 16, j].var()
        expected = 0.5 ** (2 * hurst)
        assert abs(mid - expected) < 4 * expected * np.sqrt(2.0 / 6000)


# ------------------------------------------------------- blocks and scratch

# (path_offset, count) slices that start, end or straddle the 64-path blocks
BLOCK_SLICES = [(0, 1), (63, 1), (63, 2), (1, 64), (64, 64), (60, 70), (127, 73), (5, 195)]


@pytest.mark.parametrize("method", ["circulant", "cholesky"])
def test_fbm_slices_across_blocks_equal_rows_of_one_batch(method):
    grid = TimeGrid(1.0, 64)
    whole = generate_fbm(grid, 0.7, 200, seed=8, method=method).values
    for offset, count in BLOCK_SLICES:
        part = generate_fbm(grid, 0.7, count, seed=8, method=method, path_offset=offset).values
        assert np.array_equal(part, whole[offset : offset + count]), (offset, count)


def test_wiener_slices_across_blocks_equal_rows_of_one_batch():
    grid = TimeGrid(1.0, 32)
    whole = generate_wiener(grid, 2, 200, seed=8).values
    for offset, count in BLOCK_SLICES:
        part = generate_wiener(grid, 2, count, seed=8, path_offset=offset).values
        assert np.array_equal(part, whole[offset : offset + count]), (offset, count)


def test_multi_component_drivers_equal_their_single_components():
    grid = TimeGrid(1.0, 32)
    model = model_zoo("linear_mixed", wiener_dim=0, rough_dim=2, hurst=[0.6, 0.9])
    _, z, _, _ = stage_drivers(model, grid, 70, 4, 3)
    for j, hurst in enumerate((0.6, 0.9)):
        alone = generate_fbm(grid, hurst, 70, seed=4, component=j, path_offset=3).values[:, :, 0]
        assert np.array_equal(z.values[:, :, j], alone)


MB = 2**20


def scratch_bytes(make):
    """Traced peak allocation of ``make()`` minus the bytes of what it returns."""
    tracemalloc.start()
    try:
        batch = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - batch.values.nbytes


def test_circulant_scratch_does_not_grow_with_the_batch():
    grid = TimeGrid(1.0, 512)
    small, large = (
        scratch_bytes(lambda: generate_fbm(grid, 0.75, count, seed=1, method="circulant")) for count in (512, 2048)
    )
    assert large - small < 2 * MB
    assert large < 8 * MB


def test_wiener_scratch_does_not_grow_with_the_batch():
    grid = TimeGrid(1.0, 512)
    small, large = (scratch_bytes(lambda: generate_wiener(grid, 1, count, seed=1)) for count in (512, 2048))
    assert large - small < 2 * MB
    assert large < 4 * MB


# ------------------------------------ streams, half spectrum, BLAS-free factor


def test_normal_matrix_rows_are_the_paths_own_ziggurat_streams():
    tag = rnd.stream_tag(rnd.ROUGH_Y, 1)
    for offset, count in BLOCK_SLICES:
        block = rnd.normal_matrix(9, tag, 37, count, offset=offset)
        for i in range(count):
            assert np.array_equal(block[i], rnd.path_stream(9, offset + i, tag).standard_normal(37)), (offset, i)


def _full_spectrum_fbm(grid, hurst, count, seed, tag):
    """Circulant synthesis through the whole 2n Hermitian spectrum and a complex FFT."""
    n = grid.step_count
    weights = np.sqrt(np.clip(fgn_circulant_eigenvalues(n, hurst), 0.0, None) / (4 * n))
    z = rnd.normal_matrix(seed, tag, 2 * n, count)
    spectrum = np.zeros((count, 2 * n), dtype=np.complex128)
    spectrum[:, 0] = np.sqrt(2.0) * z[:, 0]
    spectrum[:, n] = np.sqrt(2.0) * z[:, 1]
    spectrum[:, 1:n] = z[:, 2::2] + 1j * z[:, 3::2]
    spectrum[:, n + 1 :] = np.conj(spectrum[:, n - 1 : 0 : -1])
    fgn = np.fft.fft(spectrum * weights, axis=1).real[:, :n]
    return np.cumsum(fgn, axis=1) * grid.dt**hurst


@pytest.mark.parametrize("n", [512, 300])
def test_circulant_half_spectrum_equals_the_full_fft(n):
    # the zero-frequency and Nyquist terms are real and scaled by sqrt 2;
    # the golden sums pin bits, and only this test pins that layout
    grid = TimeGrid(1.0, n)
    got = generate_fbm(grid, 0.7, 70, seed=6, method="circulant").values[:, 1:, 0]
    reference = _full_spectrum_fbm(grid, 0.7, 70, 6, rnd.stream_tag(rnd.ROUGH_X))
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("n", [1, 31, 200])
def test_einsum_cholesky_matches_lapack(n):
    a = fbm_covariance_matrix(TimeGrid(1.0, n), 0.75)
    np.testing.assert_allclose(_cholesky(a), np.linalg.cholesky(a), rtol=0, atol=1e-11)


def test_einsum_cholesky_rejects_an_indefinite_matrix():
    with pytest.raises(SynthesisError):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _stdout_at_one_and_two_blas_threads(code, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


def test_cholesky_bits_do_not_depend_on_the_blas_thread_count():
    code = (
        "import hashlib\n"
        "from mixedsde import TimeGrid, generate_fbm\n"
        "for n in (100, 200, 511):\n"
        "    values = generate_fbm(TimeGrid(1.0, n), 0.75, 70, seed=3, method='cholesky').values\n"
        "    print(n, hashlib.sha256(values.tobytes()).hexdigest())\n"
    )
    sums = _stdout_at_one_and_two_blas_threads(code)
    assert sums[0] == sums[1]


def test_fbm_command_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the sample covariance is one BLAS product v.T @ v over every path; the
    # first config is the golden case, the second the benchmark's shape
    code = (
        "import hashlib, pathlib, sys\n"
        "from mixedsde.cli import main\n"
        "root = pathlib.Path(sys.argv[1])\n"
        "for k, body in enumerate(sys.argv[2:]):\n"
        "    (root / f'{k}.cfg').write_text(body)\n"
        "    assert main(['fbm', '--config', str(root / f'{k}.cfg'), '--out', str(root / str(k))]) == 0\n"
        "    print('sha256', k, hashlib.sha256((root / str(k) / 'fbm.csv').read_bytes()).hexdigest())\n"
    )
    bodies = (
        "hurst: [0.6, 0.8]\nn: 4\npaths: 2100\nmethod: both\nseed: 15\n",
        "hurst: [0.75]\nn: 32\npaths: 40000\nmethod: circulant\nseed: 3\n",
    )
    sums = [
        [line for line in out.splitlines() if line.startswith("sha256")]
        for out in _stdout_at_one_and_two_blas_threads(code, str(tmp_path), *bodies)
    ]
    assert len(sums[0]) == len(bodies) and sums[0] == sums[1]


# ------------------------------------------ caller-chosen destinations, re-keying

# (path_offset, count): counts 1, 64 and 70 at offsets 0, 3 and 61, so that
# most slices cross a 64-path block edge
OUT_SLICES = [(offset, count) for offset in (0, 3, 61) for count in (1, 64, 70)]


def _time_major_nans(count, points, *dim):
    """A (count, points[, dim]) view of a C-contiguous (points, count[, dim]) array of NaNs."""
    return np.full((points, count, *dim), np.nan).swapaxes(0, 1)


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("method", ["circulant", "cholesky"])
@pytest.mark.parametrize("offset, count", OUT_SLICES)
def test_fbm_writes_the_same_bytes_into_a_time_major_out(method, offset, count):
    grid = TimeGrid(1.0, 48)
    want = generate_fbm(grid, 0.7, count, seed=12, method=method, path_offset=offset).values
    out = _time_major_nans(count, 49)
    got = generate_fbm(grid, 0.7, count, seed=12, method=method, path_offset=offset, out=out)
    assert want.flags.c_contiguous  # the default stays path-major
    assert np.shares_memory(got.values, out)
    _same_bytes(got.values, want)


@pytest.mark.parametrize("offset, count", OUT_SLICES)
def test_wiener_writes_the_same_bytes_into_a_time_major_out(offset, count):
    grid = TimeGrid(1.0, 40)
    want = generate_wiener(grid, 2, count, seed=13, path_offset=offset).values
    out = _time_major_nans(count, 41, 2)
    got = generate_wiener(grid, 2, count, seed=13, path_offset=offset, out=out)
    assert got.values is out
    _same_bytes(got.values, want)


def _sensitivity_stage(base):
    """A coupled stage dY = a(Y) dt + b(Y) dW + c(Y) dZ on drivers independent of ``base``'s."""

    def at_y(fld):
        return CoefficientField(fld.name, lambda t, x, y: fld.evaluate(t, y))

    return CoupledModelSpec(
        name="sensitivity",
        base=base,
        initial_value=base.initial_value,
        drift=at_y(base.drift),
        wiener=at_y(base.wiener),
        rough=at_y(base.rough),
        driver=base.driver,
        share_drivers=False,
    )


def test_generate_drivers_write_each_component_into_time_major_storage():
    grid = TimeGrid(1.0, 40)
    base = model_zoo("linear_mixed", wiener_dim=2, rough_dim=2, hurst=[0.6, 0.9])
    _, _, w, z = stage_drivers(_sensitivity_stage(base), grid, 70, 4, 3)
    for batch in (w, z):
        storage = batch.values.base
        assert storage.flags.c_contiguous and storage.shape == (41, 70, 2)
        assert np.shares_memory(storage, batch.values)
    for j, hurst in enumerate((0.6, 0.9)):
        alone = generate_fbm(grid, hurst, 70, seed=4, stream_role=rnd.ROUGH_Y, component=j, path_offset=3)
        _same_bytes(z.values[:, :, j], alone.values[:, :, 0])
    _same_bytes(w.values, generate_wiener(grid, 2, 70, seed=4, stream_role=rnd.WIENER_Y, path_offset=3).values)


def _bad_outs(shape):
    read_only = np.zeros(shape)
    read_only.flags.writeable = False
    wrong_shape = np.zeros(shape[:1] + (shape[1] - 1,) + shape[2:])
    return [wrong_shape, np.zeros(shape, dtype=np.float32), read_only, np.zeros(shape).tolist()]


@pytest.mark.parametrize("method", ["circulant", "cholesky"])
def test_fbm_rejects_a_bad_out_naming_the_expected_shape(method):
    for bad in _bad_outs((5, 9)):
        with pytest.raises(DomainError, match=r"shape \(5, 9\)"):
            generate_fbm(TimeGrid(1.0, 8), 0.7, 5, seed=1, method=method, out=bad)


def test_wiener_rejects_a_bad_out_naming_the_expected_shape():
    for bad in _bad_outs((5, 9, 2)):
        with pytest.raises(DomainError, match=r"shape \(5, 9, 2\)"):
            generate_wiener(TimeGrid(1.0, 8), 2, 5, seed=1, out=bad)


def test_a_rekeyed_generator_is_a_fresh_stream():
    tag = rnd.stream_tag(rnd.ROUGH_Y, 2)
    fresh = rnd.path_stream(17, 5, tag)
    want_words = fresh.bit_generator.state["state"]["state"].tolist()
    want = fresh.standard_normal(10_000)
    partly_used = rnd.path_stream(3, 9, tag)
    partly_used.bit_generator.random_raw(3)
    half_word = rnd.path_stream(3, 9, tag)
    half_word.integers(0, 2**32, dtype=np.uint32)
    assert half_word.bit_generator.state["has_uint32"] == 1
    for used in (partly_used, half_word):
        assert used.bit_generator.state["state"]["state"].tolist() != want_words
        got = rnd.path_stream(17, 5, tag, reuse=used)
        assert got is used
        state = got.bit_generator.state
        assert state["state"]["state"].tolist() == want_words
        assert (state["has_uint32"], state["uinteger"]) == (0, 0)
        assert np.array_equal(got.standard_normal(10_000), want)


# ------------------------------------------- prefix sums against per-block np.cumsum


def _per_block_fbm(grid, hurst, count, seed, offset):
    """Circulant synthesis summed block by block: irfft, np.cumsum along the path, then times dt**H."""
    n = grid.step_count
    weights = np.sqrt(np.clip(fgn_circulant_eigenvalues(n, hurst), 0.0, None) / (4 * n))
    values = np.zeros((count, n + 1))
    for lo, hi in _blocks(count, offset):
        z = rnd.normal_matrix(seed, rnd.stream_tag(rnd.ROUGH_X), 2 * n, hi - lo, offset=lo)
        spectrum = np.empty((hi - lo, n + 1), dtype=np.complex128)
        spectrum[:, 0] = z[:, 0] * np.sqrt(2.0)
        spectrum[:, n] = z[:, 1] * np.sqrt(2.0)
        spectrum[:, 1:n] = z[:, 2:].view(np.complex128)
        spectrum *= weights[: n + 1]
        np.conjugate(spectrum, out=spectrum)
        fgn = np.cumsum(np.fft.irfft(spectrum, n=2 * n, axis=1, norm="forward")[:, :n], axis=1)
        fgn *= grid.dt**hurst
        values[lo - offset : hi - offset, 1:] = fgn
    return values


def _per_block_wiener(grid, dim, count, seed, offset):
    """Wiener synthesis summed block by block: increments times sqrt(dt), then np.cumsum along the path."""
    n = grid.step_count
    values = np.zeros((count, n + 1, dim))
    for component in range(dim):
        for lo, hi in _blocks(count, offset):
            z = rnd.normal_matrix(seed, rnd.stream_tag(rnd.WIENER_X, component), n, hi - lo, offset=lo)
            z *= np.sqrt(grid.dt)
            values[lo - offset : hi - offset, 1:, component] = np.cumsum(z, axis=1)
    return values


# (path_offset, count): inside one block, across one edge, across two
SUM_SLICES = [(0, 1), (3, 130), (61, 70), (64, 64)]


@pytest.mark.parametrize("layout", ["path-major", "time-major"])
@pytest.mark.parametrize("n", [1, 2, 63, 257])
def test_fbm_prefix_sums_equal_per_block_cumsums(n, layout):
    for grid, hurst in ((TimeGrid(1.7, n), 0.7), (TimeGrid(float(n), n), 0.3)):
        for offset, count in SUM_SLICES:
            out = None if layout == "path-major" else _time_major_nans(count, n + 1)
            got = generate_fbm(grid, hurst, count, seed=21, path_offset=offset, out=out).values[:, :, 0]
            _same_bytes(got, _per_block_fbm(grid, hurst, count, 21, offset))


@pytest.mark.parametrize("layout", ["path-major", "time-major"])
@pytest.mark.parametrize("n", [1, 2, 63, 257])
def test_wiener_prefix_sums_equal_per_block_cumsums(n, layout):
    grid = TimeGrid(1.7, n)
    for offset, count in SUM_SLICES:
        out = None if layout == "path-major" else _time_major_nans(count, n + 1, 2)
        got = generate_wiener(grid, 2, count, seed=22, path_offset=offset, out=out).values
        _same_bytes(got, _per_block_wiener(grid, 2, count, 22, offset))


def test_prefix_sums_keep_a_leading_negative_zero():
    # np.cumsum copies its first element; a sum started at 0.0 + x would turn -0.0 into 0.0
    increments = np.array([[-0.0, -0.0, 1.5, -0.0], [-0.0, 2.0, -0.0, -3.0]])
    for values in (np.c_[np.zeros(2), increments], np.c_[np.zeros(2), increments][:, :, None]):
        _prefix_sums(values)
        _same_bytes(values, np.c_[np.zeros(2), np.cumsum(increments, axis=1)].reshape(values.shape))
        assert np.signbit(values[:, 1]).all()
