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
from mixedsde import parallel
from mixedsde.moments import MomentTarget, grid_stability_tables


@pytest.mark.parametrize("workers", [1, 2])
def test_map_paths_covers_the_paths_in_order(workers):
    paths = 2 * parallel.CHUNK_PATHS + 5
    ranges = parallel.map_paths(lambda lo, hi: (lo, hi), paths, workers)
    assert ranges == [
        (0, parallel.CHUNK_PATHS),
        (parallel.CHUNK_PATHS, 2 * parallel.CHUNK_PATHS),
        (2 * parallel.CHUNK_PATHS, paths),
    ]


@pytest.mark.parametrize("paths", [0, -1])
def test_map_paths_rejects_nonpositive_path_counts(paths):
    calls = []
    with pytest.raises(DomainError, match="at least one path"):
        parallel.map_paths(lambda lo, hi: calls.append((lo, hi)), paths, 1)
    assert calls == []


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
    "stability": lambda: grid_stability_tables(
        model_zoo("stochvol"), [MomentTarget("sup", p=2.0), MomentTarget("exp", c=0.5, gamma=1.0)],
        [16, 64], 700, seed=3,
    ),
    "boundary": lambda: grid_stability_tables(
        model_zoo("bounded_trig"), [MomentTarget("exp", c=1.0, gamma=g) for g in (0.6, 1.5)], [64], 700, seed=4
    ),
    "fernique": lambda: fernique_tail_check(0.75, 0.6, TimeGrid(1.0, 64), 700, seed=5),
    "convergence": lambda: geometric_convergence_study(model_zoo("geometric_mixed", hurst=0.75), [16, 64], 700, seed=6),
}


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_studies_are_invariant_to_the_chunk_size(monkeypatch, study):
    # repr shows every float to the last bit and prints nan equal to nan
    reference = repr(_STUDIES[study]())
    for chunk in (1, 7, 333):
        monkeypatch.setattr(parallel, "CHUNK_PATHS", chunk)
        assert repr(_STUDIES[study]()) == reference, f"CHUNK_PATHS={chunk}"
