"""Path-parallel execution with worker-count-invariant results.

Work is split into fixed-size contiguous path ranges. Per-path random
streams make every range's values independent of the partition, and the
ranges are merged in path order, so estimates are bit-identical for any
worker count: workers only decide who computes a range, never what it
contains.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from .errors import DomainError

CHUNK_PATHS = 2048


def run_jobs(jobs: Sequence[Callable[[], object]], workers: int = 1) -> list:
    """Run the jobs, in order, optionally on a thread pool; ordered results."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def map_paths(job: Callable[[int, int], object], paths: int, workers: int) -> list:
    """``job(lo, hi)`` on each ``CHUNK_PATHS`` range of paths; results in path order."""
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    ranges = [(lo, min(paths, lo + CHUNK_PATHS)) for lo in range(0, paths, CHUNK_PATHS)]
    return run_jobs([lambda lo=lo, hi=hi: job(lo, hi) for lo, hi in ranges], workers)
