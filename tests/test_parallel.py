import pytest

from mixedsde import DomainError, GeometricParams, geometric_convergence_study, model_zoo
from mixedsde import parallel
from mixedsde.moments import MomentTarget, grid_stability_study


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
        grid_stability_study(model_zoo("bounded_trig"), MomentTarget("sup", 2.0), [8], 0, seed=1)
    with pytest.raises(DomainError):
        geometric_convergence_study(GeometricParams(), 0.75, [8], 0, seed=1)
