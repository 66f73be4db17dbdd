"""Counter-based random streams for reproducible path-parallel sampling.

Each (seed, stream tag, path index) triple owns an independent Philox
stream, so path i's randomness depends only on the seed and its own index:
batches can be generated in any partition, by any worker count, and still
come out bit-identical. Gaussians are numpy's ziggurat normals
(Marsaglia & Tsang 2000) drawn from each path's own stream. The ziggurat
takes a varying number of raw draws per normal, so the position of a
path's stream after k normals is not fixed; no caller relies on it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError

__all__ = [
    "WIENER_X",
    "ROUGH_X",
    "WIENER_Y",
    "ROUGH_Y",
    "VALIDATOR",
    "stream_tag",
    "path_stream",
    "normal_matrix",
]

# Stream roles: primary-equation Wiener/rough noise, coupled-stage noise,
# and assumption-validator sampling. Component index packs into the low bits.
WIENER_X = 1
ROUGH_X = 2
WIENER_Y = 3
ROUGH_Y = 4
VALIDATOR = 5

# A new Philox's state: zero counter, empty buffer, no cached half word.
_FRESH = Philox(key=0).state


def stream_tag(role: int, component: int = 0) -> int:
    """Pack a stream role and a component index into one tag."""
    if not 0 <= component < 2**16:
        raise DomainError(f"component index out of range: {component}")
    return (int(role) << 16) | int(component)


def path_stream(seed: int, path_index: int, tag: int, reuse: Generator | None = None) -> Generator:
    """The Philox stream owned by one path of one noise component.

    The 128-bit Philox key is (seed, tag<<32 | path_index); Philox's key
    schedule is the hash that decorrelates neighbouring indices. ``reuse``,
    a Philox ``Generator``, is re-keyed in place and returned: its counter,
    key, buffer and cached half word are reset, so it yields the same stream
    as a new one, for about a quarter of the cost of constructing one.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a u64, got {seed!r}")
    if not 0 <= path_index < 2**32:
        raise DomainError(f"path index out of range: {path_index}")
    key = (seed << 64) | (int(tag) << 32) | int(path_index)
    if reuse is None:
        return Generator(Philox(key=key))
    fresh = {"counter": _FRESH["state"]["counter"], "key": np.array([key % 2**64, seed], np.uint64)}
    reuse.bit_generator.state = {**_FRESH, "state": fresh}
    return reuse


def normal_matrix(seed: int, tag: int, draws: int, count: int, offset: int = 0) -> np.ndarray:
    """(count, draws) standard normals; row i comes from path stream offset+i.

    Row i equals ``path_stream(seed, offset + i, tag).standard_normal(draws)``,
    written straight into the block. One generator serves every row,
    re-keyed to each row's stream through ``path_stream(..., reuse=)``.
    """
    z = np.empty((count, draws))
    gen = None
    for i in range(count):
        (gen := path_stream(seed, offset + i, tag, reuse=gen)).standard_normal(out=z[i])
    return z
