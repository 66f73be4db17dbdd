"""Path-parallel execution with partition-invariant results.

Work is split into fixed-size contiguous path ranges, and per-path random
streams make every range's values independent of the partition.
``map_paths`` is the one place that merges ranges: it joins per-path
results in path order and studies reduce only after the join, so results
are bit-identical at any worker count and any chunk size.

The pool is threads sharing one GIL, which the Euler loop's small numpy
calls take at every step. On a shared 2-core Xeon (numpy 2.4.6, Python
3.11.7), two finest-level ``stochvol`` primary solves (2,048 paths, n 4,096)
took 0.51 s on two threads and 0.54 s in turn (medians of 10). Nothing may
busy-loop in Python beside ``map_paths``: a counting thread stretched one
0.29 s solve to 67-121 s, as each GIL handoff waited a 5 ms switch interval.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

CHUNK_PATHS = 2048


def run_jobs(jobs: Sequence[Callable[[], object]], workers: int = 1) -> list:
    """Run the jobs, in order, optionally on a thread pool; ordered results."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _join(pieces: list):
    """Per-chunk results joined in path order: arrays along axis 0, tuples and dicts by item."""
    first = pieces[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return tuple(_join(list(items)) for items in zip(*pieces))
    if isinstance(first, dict):
        return {key: _join([piece[key] for piece in pieces]) for key in first}
    if isinstance(first, np.ndarray) and first.ndim:
        return np.concatenate(pieces)
    raise TypeError(f"a path job returns per-path arrays, tuples, dicts or None, not {first!r}")


def map_paths(job: Callable[[int, int], object], paths: int, workers: int):
    """``job(lo, hi)`` on each ``CHUNK_PATHS`` range of paths, the results joined in path order.

    A job returns arrays over paths ``lo`` to ``hi``, tuples or dicts of them, or None; never a reduction.
    """
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    ranges = [(lo, min(paths, lo + CHUNK_PATHS)) for lo in range(0, paths, CHUNK_PATHS)]
    return _join(run_jobs([lambda lo=lo, hi=hi: job(lo, hi) for lo, hi in ranges], workers))
