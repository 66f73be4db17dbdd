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


def stream_tag(role: int, component: int = 0) -> int:
    """Pack a stream role and a component index into one tag."""
    if not 0 <= component < 2**16:
        raise DomainError(f"component index out of range: {component}")
    return (int(role) << 16) | int(component)


def path_stream(seed: int, path_index: int, tag: int) -> Generator:
    """The Philox stream owned by one path of one noise component.

    The 128-bit Philox key is (seed, tag<<32 | path_index); Philox's key
    schedule is the hash that decorrelates neighbouring indices.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a u64, got {seed!r}")
    if not 0 <= path_index < 2**32:
        raise DomainError(f"path index out of range: {path_index}")
    key = (seed << 64) | (int(tag) << 32) | int(path_index)
    return Generator(Philox(key=key))


def normal_matrix(seed: int, tag: int, draws: int, count: int, offset: int = 0) -> np.ndarray:
    """(count, draws) standard normals; row i comes from path stream offset+i.

    Row i equals ``path_stream(seed, offset + i, tag).standard_normal(draws)``,
    written straight into the block.
    """
    z = np.empty((count, draws))
    for i in range(count):
        path_stream(seed, offset + i, tag).standard_normal(out=z[i])
    return z
