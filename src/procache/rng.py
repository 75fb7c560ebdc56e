"""Counter-based random streams.

Every stochastic routine in this package draws from a Philox generator keyed
by ``(seed, *ids)``, where the ids identify the consumer (user index, slot
index, replicate, ...).  Streams are therefore independent of evaluation
order: drawing user 3's samples before user 0's, or slot 5 before slot 1,
yields the same numbers as any other order.

The streams are not yet all distinct: numpy reads the key ``[seed, key1]`` as
float64 once ``key1 >= 2**63`` (:func:`stream_key`), so ids that differ only
in their low bits can share a stream.  Every user whose key lands there
draws the same uniforms in every slot (ROADMAP item 11).
"""

from __future__ import annotations

import numpy as np

_FOLD = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# numpy reads a key list holding an id >= 2**63 as float64, exact up to 2**53
# only: a larger seed could share its streams with another (2**53 + 1 with 2**53)
MAX_SEED = 2**53
_ZEROS = (0, 0, 0, 0)


def stream_key(seed: int, *ids: int) -> np.ndarray:
    """The Philox key (2,) uint64 of stream ``(seed, *ids)``: the ids folded
    into ``key1``, and exactly what numpy reads from ``[seed, key1]``, which
    is rounded through float64 once ``key1 >= 2**63``."""
    key1 = 0
    for i in ids:
        key1 = (key1 * _FOLD + int(i) + 1) & _MASK
    return np.asarray([int(seed) & _MASK, key1]).astype(np.uint64)


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the generator for stream ``(seed, *ids)``.

    The i-th variate of a stream is fixed by the key alone, so a consumer
    that needs samples ``[0, k)`` can draw them in one call and a consumer
    that needs only sample ``i`` can skip ahead by drawing ``i + 1``.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *ids)))


def rekey(bits: np.random.Philox, key: np.ndarray) -> None:
    """Move ``bits`` to the start of the stream with Philox ``key`` (counter
    0, empty buffer): what it yields next is what a new ``Philox(key=key)``
    would, without building one."""
    bits.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                  "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
