"""Counter-based random streams for reproducible path-parallel sampling.

Each (seed, stream tag, path index) triple owns an independent stream, so
path i's randomness depends only on the seed and its own index: batches can
be generated in any partition, by any worker count, and still come out
bit-identical. The triple keys a Philox hash (Salmon et al., SC'11), whose
first outputs seed an SFC64 generator that draws the path's values, so the
keying is counter-based and each draw costs SFC64's few cycles, not a
Philox block. Gaussians are numpy's ziggurat normals (Marsaglia & Tsang
2000) drawn from each path's own stream. The ziggurat takes a varying
number of raw draws per normal, so the position of a path's stream after k
normals is not fixed; no caller relies on it.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import SFC64, Generator, Philox

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


class _Hasher(threading.local):
    """One thread's Philox hash and the state it is re-keyed from.

    Re-keying one shared Philox races when two workers key streams at once,
    so each thread has its own. Every use overwrites the key and resets the
    counter and buffer, so no output depends on an earlier one.
    """

    def __init__(self):
        self.philox = Philox(key=0)
        self.key = [0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_hasher = _Hasher()


def stream_tag(role: int, component: int = 0) -> int:
    """Pack a stream role and a component index into one tag."""
    if not 0 <= component < 2**16:
        raise DomainError(f"component index out of range: {component}")
    return (int(role) << 16) | int(component)


def path_stream(seed: int, path_index: int, tag: int, reuse: Generator | None = None) -> Generator:
    """The SFC64 stream owned by one path of one noise component.

    The stream is keyed by the Philox stream with 128-bit key
    (seed, tag<<32 | path_index): Philox's key schedule is the hash that
    decorrelates neighbouring indices. Its first three outputs are SFC64's
    (a, b, c) state words, the SFC64 counter starts at 1, and 12 outputs are
    discarded, as numpy's own SFC64 seeding does. ``reuse``, an SFC64
    ``Generator``, is re-keyed in place and returned; it then yields the
    same stream as a new one, whatever it drew before. Each thread hashes
    with its own Philox, so threads may key streams at once.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a u64, got {seed!r}")
    if not 0 <= path_index < 2**32:
        raise DomainError(f"path index out of range: {path_index}")
    gen = Generator(SFC64(0)) if reuse is None else reuse
    sfc = getattr(gen, "bit_generator", None)
    if not isinstance(sfc, SFC64):
        raise DomainError(f"reuse must be a Generator over SFC64, got {type(sfc).__name__} from {gen!r}")
    _hasher.key[:] = (int(tag) << 32) | int(path_index), seed
    philox = _hasher.philox
    philox.state = _hasher.state
    # The block's fourth word becomes the counter: the Philox output array
    # is the SFC64 state.
    words = philox.random_raw(4)
    words[3] = 1
    sfc.state = {"bit_generator": "SFC64", "state": {"state": words}, "has_uint32": 0, "uinteger": 0}
    sfc.random_raw(12)
    return gen


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
