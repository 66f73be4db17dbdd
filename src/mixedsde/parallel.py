"""Path-parallel execution with partition-invariant results.

Work is split into contiguous path ranges, and per-path random streams make
every range's values independent of the partition. ``map_paths`` is the one
place that merges ranges: it joins per-path results in path order and
studies reduce only after the join, so results are bit-identical at any
worker count and any chunk size.

A full chunk holds ``min(CHUNK_PATHS, P)`` paths. P is the largest power of
two, at least 64 (one synthesis block, whose scratch a narrower chunk would
not shrink), whose paths fit ``CHUNK_BYTES`` at the study's per-path
footprint. Each array owner states that footprint as an upper bound:
``solver`` for a level ladder, every finest-level driver and state column
plus the Euler block scratch, and ``fbm`` for the jobs that read one
synthesized batch. So at most ``min(workers, chunks) * chunk * footprint``
bytes of chunk arrays are alive, plus one synthesis block's scratch per
running chunk while it draws its drivers: a circulant block's normals, half
spectrum and inverse FFT, six finest-level columns of 64 paths. A
``stochvol`` ladder to n 4,096 gets 1,024-path chunks.

With W >= 2 workers and more than one chunk, the partition is staggered:
chunk k, for k = 1 ... W - 1, holds k/W of a full chunk, rounded down to
whole 64-path synthesis blocks (a share under one block is left out); every
later chunk is full and the last takes the rest. The pool threads then
start their full chunks 1/W of a chunk apart, so one chunk's peak (a
ladder's finest-level solve, or a Fernique chunk's whole batch) meets
another's driver synthesis and coarse levels rather than its peak. The bound
above still holds, as no chunk outgrows a full one, but the typical peak is
one chunk's peak plus the other chunks' mid-life footprints. At two workers
on the 2-core Xeon named below, the ``coupled_moments`` ladder (512 + 3 x
1,024 + 512 paths) peaked at 406 MB RSS against 446 MB unstaggered, and
``fernique_tail`` (1,024 + 2,048 + 1,024 paths) at 72 against 81 MB
(medians of 10 alternating 55 s benchmark runs each). At one worker the
partition is unstaggered.

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
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .fbm import _BLOCK_ROWS

CHUNK_PATHS = 2048
CHUNK_BYTES = 256 << 20


def chunk_paths(path_bytes: int) -> int:
    """Paths per chunk at ``path_bytes`` per path: ``CHUNK_PATHS``, cut to the budget's power of two."""
    size = _BLOCK_ROWS  # one synthesis block: the narrowest chunk the budget cuts
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


def _ranges(paths: int, workers: int, path_bytes: int) -> list[tuple[int, int]]:
    """The path ranges of :func:`map_paths`: full :func:`chunk_paths` chunks after a staggered lead."""
    size = chunk_paths(path_bytes)
    lead = [k * size // workers // _BLOCK_ROWS * _BLOCK_ROWS for k in range(1, workers)] if paths > size else []
    sizes = chain(filter(None, lead), repeat(size))
    ranges, lo = [], 0
    while lo < paths:
        ranges.append((lo, min(paths, lo + next(sizes))))
        lo = ranges[-1][1]
    return ranges


def map_paths(job: Callable[[int, int], object], paths: int, workers: int, path_bytes: int = 0):
    """``job(lo, hi)`` on each of :func:`_ranges`' path ranges, the results joined in path order.

    ``path_bytes`` is the job's footprint per path. A job returns arrays over
    paths ``lo`` to ``hi``, tuples or dicts of them, or None; never a reduction.
    """
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    jobs = [lambda lo=lo, hi=hi: job(lo, hi) for lo, hi in _ranges(paths, workers, path_bytes)]
    return _join(run_jobs(jobs, workers))
