"""Path-parallel execution with partition-invariant results.

Work is split into contiguous path ranges, and per-path random streams make
every range's values independent of the partition. ``map_paths`` is the one
place that merges ranges: it joins per-path results in path order and
studies reduce only after the join, so results are bit-identical at any
worker count and any chunk size.

A chunk holds ``min(CHUNK_PATHS, P)`` paths. P is the largest power of two,
at least 64 (one synthesis block, whose scratch a narrower chunk would not
shrink), whose paths fit ``CHUNK_BYTES`` at the study's per-path footprint.
Each array owner states that footprint as an upper bound: ``solver`` for a
level ladder, every finest-level driver and state column plus the Euler
block scratch, and ``fbm`` for the jobs that read one synthesized batch. So
at most ``min(workers, chunks) * chunk * footprint`` bytes of chunk arrays
are alive, plus one synthesis block's scratch per running chunk while it
draws its drivers: a circulant block's normals, half spectrum and inverse
FFT, six finest-level columns of 64 paths. A ``stochvol`` ladder to n 4,096
gets 1,024-path chunks.

The pool is threads sharing one GIL, which the Euler loop's small numpy
calls take at every step. On a shared 2-core Xeon (numpy 2.4.6, Python
3.11.7), two finest-level ``stochvol`` primary solves (2,048 paths, n 4,096)
took 0.51 s on two threads and 0.54 s in turn (medians of 10). Narrower
chunks hand the GIL over more often for the same work: the
``coupled_moments`` study (4,096 paths) took 2.68-3.08 s in 1,024-path
chunks against 2.37-2.95 s in 2,048-path chunks on two threads, but
3.82-4.43 s against 3.67-4.68 s on one (six alternating rounds each).
Nothing may busy-loop in Python beside ``map_paths``: a counting thread
stretched one 0.29 s solve to 67-121 s, as each GIL handoff waited a 5 ms
switch interval.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

CHUNK_PATHS = 2048
CHUNK_BYTES = 256 << 20
# fbm's synthesis block: the narrowest chunk the memory budget cuts
_MIN_BUDGET_PATHS = 64


def chunk_paths(path_bytes: int) -> int:
    """Paths per chunk at ``path_bytes`` per path: ``CHUNK_PATHS``, cut to the budget's power of two."""
    size = _MIN_BUDGET_PATHS
    while size < CHUNK_PATHS and 2 * size * path_bytes <= CHUNK_BYTES:
        size *= 2
    return min(CHUNK_PATHS, size)


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


def map_paths(job: Callable[[int, int], object], paths: int, workers: int, path_bytes: int = 0):
    """``job(lo, hi)`` on each :func:`chunk_paths` range of paths, the results joined in path order.

    ``path_bytes`` is the job's footprint per path. A job returns arrays over
    paths ``lo`` to ``hi``, tuples or dicts of them, or None; never a reduction.
    """
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    size = chunk_paths(path_bytes)
    ranges = [(lo, min(paths, lo + size)) for lo in range(0, paths, size)]
    return _join(run_jobs([lambda lo=lo, hi=hi: job(lo, hi) for lo, hi in ranges], workers))
