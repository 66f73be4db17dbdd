import numpy as np
import pytest

from mixedsde import TimeGrid, generate_fbm


@pytest.fixture(scope="session")
def fbm_750_1024():
    """Shared medium-resolution fBm batch (H=0.75, n=1024, 200 paths)."""
    return generate_fbm(TimeGrid(1.0, 1024), 0.75, 200, seed=7)


def sample_cov_se(exact: np.ndarray, count: int) -> np.ndarray:
    """Standard error of zero-mean Gaussian sample covariance entries."""
    return np.sqrt((exact**2 + np.outer(np.diag(exact), np.diag(exact))) / count)


def numpy_dispatch() -> str:
    """numpy's version and SIMD dispatch level, for golden failure messages.

    ``power``, ``exp``, ``log``, ``log1p``, ``tan`` and ``tanh`` give other
    last bits under AVX-512, AVX2 and baseline loops, so a golden sum holds
    only at the level it was taken at.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__
    enabled = [name for name, on in __cpu_features__.items() if on and name.startswith(("AVX512", "AVX2"))]
    return f"numpy {np.__version__}, cpu baseline {__cpu_baseline__}, enabled {enabled}"
