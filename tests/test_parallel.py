import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsde import (
    DomainError,
    TimeGrid,
    fernique_tail_check,
    generate_fbm,
    generate_wiener,
    geometric_convergence_study,
    model_zoo,
)
from mixedsde import parallel, solver
from mixedsde.cli import main
from mixedsde.fbm import batch_path_bytes
from mixedsde.moments import MomentTarget, grid_stability_tables
from mixedsde.solver import ladder_path_bytes


@pytest.mark.parametrize("workers", [1, 2])
def test_map_paths_covers_the_paths_in_order(workers):
    paths = 2 * parallel.CHUNK_PATHS + 5
    joined = parallel.map_paths(lambda lo, hi: np.arange(lo, hi), paths, workers)
    assert np.array_equal(joined, np.arange(paths))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_paths_joins_tuples_item_by_item_and_passes_none_through(workers):
    paths = 2 * parallel.CHUNK_PATHS + 5
    index, nothing, rows = parallel.map_paths(
        lambda lo, hi: (np.arange(lo, hi), None, np.arange(2 * lo, 2 * hi).reshape(-1, 2)), paths, workers
    )
    assert np.array_equal(index, np.arange(paths))
    assert nothing is None
    assert np.array_equal(rows, np.arange(2 * paths).reshape(paths, 2))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_paths_joins_dicts_key_by_key_in_the_first_chunk_order(workers):
    paths = 2 * parallel.CHUNK_PATHS + 5

    def job(lo, hi):
        return {8: (np.arange(lo, hi), -np.arange(lo, hi)), 4: (np.arange(lo, hi) ** 2, None)}

    joined = parallel.map_paths(job, paths, workers)
    assert list(joined) == [8, 4]
    assert np.array_equal(joined[8][0], np.arange(paths)) and np.array_equal(joined[8][1], -np.arange(paths))
    assert np.array_equal(joined[4][0], np.arange(paths) ** 2) and joined[4][1] is None


_REDUCTIONS = {
    "float": lambda lo, hi: float(hi - lo),
    "numpy-scalar": lambda lo, hi: np.arange(lo, hi).sum(),
    "zero-d-array": lambda lo, hi: np.array(hi - lo),
    "count-in-a-tuple": lambda lo, hi: (np.arange(lo, hi), hi - lo),
}


@pytest.mark.parametrize("reduction", sorted(_REDUCTIONS))
def test_map_paths_refuses_a_chunk_level_reduction(reduction):
    # a per-chunk sum or count would make the result depend on the partition
    with pytest.raises(TypeError, match="per-path arrays"):
        parallel.map_paths(_REDUCTIONS[reduction], 2 * parallel.CHUNK_PATHS + 5, 1)


@pytest.mark.parametrize("paths", [0, -1])
def test_map_paths_rejects_nonpositive_path_counts(paths):
    calls = []
    with pytest.raises(DomainError, match="at least one path"):
        parallel.map_paths(lambda lo, hi: calls.append((lo, hi)), paths, 1)
    assert calls == []


# ------------------------------------------------ the memory budget


@pytest.mark.parametrize("path_bytes, chunk", [
    (0, 2048),
    (parallel.CHUNK_BYTES // 2048, 2048),
    (parallel.CHUNK_BYTES // 2048 + 1, 1024),
    (parallel.CHUNK_BYTES // 100, 64),
    (parallel.CHUNK_BYTES // 64 + 1, 64),  # the floor: one synthesis block, even past the budget
    (parallel.CHUNK_BYTES * 10, 64),
])
def test_chunk_paths_is_the_largest_power_of_two_that_fits_the_budget(path_bytes, chunk):
    assert parallel.chunk_paths(path_bytes) == chunk


@pytest.mark.parametrize("cap", [1, 7, 333, 5000])
def test_chunk_paths_never_exceeds_chunk_paths(monkeypatch, cap):
    monkeypatch.setattr(parallel, "CHUNK_PATHS", cap)
    assert parallel.chunk_paths(0) == cap
    assert parallel.chunk_paths(parallel.CHUNK_BYTES // 128) == min(cap, 128)


def _chunks(path_bytes, paths, workers=1):
    return [hi - lo for lo, hi in parallel._ranges(paths, workers, path_bytes)]


def test_coupled_benchmark_ladder_plans_four_chunks_of_1024_paths():
    # the coupled_moments benchmark config: stochvol to n 4,096, 4,096 paths
    path_bytes = ladder_path_bytes(model_zoo("stochvol", rho_power=0.2), [256, 512, 1024, 2048, 4096])
    assert _chunks(path_bytes, 4096) == [1024] * 4
    assert 1024 * path_bytes <= parallel.CHUNK_BYTES < 2048 * path_bytes


def test_small_configs_keep_their_chunks():
    # fernique_tail's benchmark config and the benchmark self-tests' tiny configs
    assert _chunks(batch_path_bytes(1024), 4096) == [2048, 2048]
    assert _chunks(ladder_path_bytes(model_zoo("stochvol", rho_power=0.2), [16, 32]), 2100) == [2048, 52]
    assert _chunks(batch_path_bytes(64), 2100) == [2048, 52]
    assert _chunks(batch_path_bytes(32), 500) == [500]


_COUPLED_LADDER = ladder_path_bytes(model_zoo("stochvol", rho_power=0.2), [256, 512, 1024, 2048, 4096])


def test_two_workers_start_with_half_a_chunk():
    assert _chunks(_COUPLED_LADDER, 4096, 2) == [512, 1024, 1024, 1024, 512]  # coupled_moments
    assert _chunks(batch_path_bytes(1024), 4096, 2) == [1024, 2048, 1024]  # fernique_tail
    # the benchmark self-tests' tiny configs: still two jobs
    assert _chunks(ladder_path_bytes(model_zoo("stochvol", rho_power=0.2), [16, 32]), 2100, 2) == [1024, 1076]
    assert _chunks(batch_path_bytes(64), 2100, 2) == [1024, 1076]
    assert _chunks(batch_path_bytes(32), 500, 2) == [500]  # one chunk: nothing to stagger


def test_three_workers_start_with_a_third_and_two_thirds_of_a_chunk():
    # each share rounded down to whole 64-path synthesis blocks
    assert _chunks(_COUPLED_LADDER, 4096, 3) == [320, 640, 1024, 1024, 1024, 64]
    assert _chunks(batch_path_bytes(1024), 4096, 3) == [640, 1344, 2048, 64]
    assert _chunks(_COUPLED_LADDER, 1100, 3) == [320, 640, 140]


def test_a_share_under_one_synthesis_block_is_left_out():
    assert parallel.chunk_paths(parallel.CHUNK_BYTES // 200) == 128
    assert _chunks(parallel.CHUNK_BYTES // 200, 500, 3) == [64, 128, 128, 128, 52]  # a third of 128 is 42
    # 64-path chunks, as under _binding_budget: no stagger at all
    assert _chunks(parallel.CHUNK_BYTES // 64, 700, 2) == [64] * 10 + [60]


def test_map_paths_hands_the_jobs_the_staggered_ranges():
    seen = []
    assert parallel.map_paths(lambda lo, hi: seen.append((lo, hi)), 4096, 2, batch_path_bytes(1024)) is None
    assert sorted(seen) == [(0, 1024), (1024, 3072), (3072, 4096)]


@settings(max_examples=200, deadline=None)
@given(paths=st.integers(1, 20_000), path_bytes=st.integers(0, parallel.CHUNK_BYTES // 16), workers=st.integers(1, 8))
def test_ranges_cover_the_paths_in_order_with_no_empty_chunk(paths, path_bytes, workers):
    ranges = parallel._ranges(paths, workers, path_bytes)
    assert ranges[0][0] == 0 and ranges[-1][1] == paths
    assert all(lo < hi for lo, hi in ranges)
    assert all(left[1] == right[0] for left, right in zip(ranges, ranges[1:]))
    size = parallel.chunk_paths(path_bytes)
    assert max(hi - lo for lo, hi in ranges) <= size  # the stated bound holds
    if workers == 1 or paths <= size:  # the unstaggered partition
        assert ranges == [(lo, min(paths, lo + size)) for lo in range(0, paths, size)]


def test_a_2_16_step_ladder_plans_chunks_inside_the_budget():
    # the plan only: nothing of this size is allocated
    path_bytes = ladder_path_bytes(model_zoo("stochvol"), [2**12, 2**14, 2**16])
    assert path_bytes >= 7 * 8 * (2**16 + 1)  # four driver and three state columns
    chunk = parallel.chunk_paths(path_bytes)
    assert chunk == 64 and chunk * path_bytes <= parallel.CHUNK_BYTES


def test_ladder_footprint_counts_shared_drivers_once():
    per_column = 8 * (64 + 1 + solver._SCRATCH_BLOCKS * solver._BLOCK_STEPS)
    assert ladder_path_bytes(model_zoo("linear_mixed"), [16, 64]) == 3 * per_column
    assert ladder_path_bytes(model_zoo("malliavin_linearized"), [64]) == 4 * per_column
    assert ladder_path_bytes(model_zoo("stochvol"), [64]) == 7 * per_column


def test_studies_reject_zero_paths_with_a_domain_error():
    with pytest.raises(DomainError):
        grid_stability_tables(model_zoo("bounded_trig"), [MomentTarget("sup", 2.0)], [8], 0, seed=1)
    with pytest.raises(DomainError):
        geometric_convergence_study(model_zoo("geometric_mixed", hurst=0.75), [8], 0, seed=1)


# ------------------------------------------------ partition invariance
#
# Every path's values depend only on (seed, path index), so any slice of a
# batch, and any chunking of a study, must reproduce the same bits.


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(["cholesky", "circulant"]), data=st.data())
def test_fbm_slices_equal_the_rows_of_one_batch(method, data):
    grid = TimeGrid(1.0, 64)
    whole = generate_fbm(grid, 0.75, 200, seed=5, method=method).values
    offset = data.draw(st.integers(0, 199), label="path_offset")
    count = data.draw(st.integers(1, 200 - offset), label="count")
    part = generate_fbm(grid, 0.75, count, seed=5, method=method, path_offset=offset).values
    assert np.array_equal(part, whole[offset : offset + count])


@settings(max_examples=30, deadline=None)
@given(offset=st.integers(0, 199), data=st.data())
def test_wiener_slices_equal_the_rows_of_one_batch(offset, data):
    grid = TimeGrid(1.0, 64)
    whole = generate_wiener(grid, 2, 200, seed=6).values
    count = data.draw(st.integers(1, 200 - offset), label="count")
    part = generate_wiener(grid, 2, count, seed=6, path_offset=offset).values
    assert np.array_equal(part, whole[offset : offset + count])


_STUDIES = {
    "stability": lambda workers=1: grid_stability_tables(
        model_zoo("stochvol"), [MomentTarget("sup", p=2.0), MomentTarget("exp", c=0.5, gamma=1.0)],
        [16, 64], 700, seed=3, workers=workers,
    ),
    "boundary": lambda workers=1: grid_stability_tables(
        model_zoo("bounded_trig"), [MomentTarget("exp", c=1.0, gamma=g) for g in (0.6, 1.5)], [64], 700, seed=4,
        workers=workers,
    ),
    "fernique": lambda workers=1: fernique_tail_check(0.75, 0.6, TimeGrid(1.0, 64), 700, seed=5, workers=workers),
    "convergence": lambda workers=1: geometric_convergence_study(
        model_zoo("geometric_mixed", hurst=0.75), [16, 64], 700, seed=6, workers=workers
    ),
}


def _binding_budget(monkeypatch):
    """``CHUNK_PATHS`` back at 2,048 and a one-byte ``CHUNK_BYTES``, so every footprint gets 64-path chunks.

    Returns the chunk count of each ``map_paths`` call that follows.
    """
    counts = []
    run_jobs = parallel.run_jobs

    def counted(jobs, workers=1):
        counts.append(len(jobs))
        return run_jobs(jobs, workers)

    monkeypatch.setattr(parallel, "run_jobs", counted)
    monkeypatch.setattr(parallel, "CHUNK_PATHS", 2048)
    monkeypatch.setattr(parallel, "CHUNK_BYTES", 1)
    return counts


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_studies_are_invariant_to_the_chunk_size(monkeypatch, study):
    # repr shows every float to the last bit and prints nan equal to nan
    reference = repr(_STUDIES[study]())
    for chunk in (1, 7, 333):
        monkeypatch.setattr(parallel, "CHUNK_PATHS", chunk)
        assert repr(_STUDIES[study]()) == reference, f"CHUNK_PATHS={chunk}"
    counts = _binding_budget(monkeypatch)
    for workers in (1, 2):
        assert repr(_STUDIES[study](workers)) == reference, f"CHUNK_BYTES=1, workers={workers}"
    assert counts == [11, 11]  # 700 paths in 64-path chunks


_CLI_STUDIES = {
    "fbm": "hurst: [0.6, 0.8]\nn: 8\npaths: 700\nmethod: both\nseed: 15\n",
    "integrate": "n: 8\npaths: 700\nseed: 16\n",
}


@pytest.mark.parametrize("command", sorted(_CLI_STUDIES))
def test_cli_csv_bytes_are_invariant_to_the_chunk_size(tmp_path, monkeypatch, command):
    config = tmp_path / "study.cfg"
    config.write_text(_CLI_STUDIES[command])
    written = {}
    for chunk in (2048, 333, 7, 1):
        monkeypatch.setattr(parallel, "CHUNK_PATHS", chunk)
        out = tmp_path / f"chunk{chunk}"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        written[chunk] = (out / f"{command}.csv").read_bytes()
    counts = _binding_budget(monkeypatch)
    for workers in (1, 2):
        out = tmp_path / f"budget-workers{workers}"
        assert main([command, "--config", str(config), "--out", str(out), "--workers", str(workers)]) == 0
        written[f"CHUNK_BYTES=1, workers={workers}"] = (out / f"{command}.csv").read_bytes()
    assert counts and set(counts) == {11}
    assert [chunk for chunk, data in written.items() if data != written[2048]] == []
