"""Counter-based random streams.

Every stochastic routine in this package draws from a Philox generator keyed
by ``(seed, *ids)``, where the ids identify the consumer (user index, slot
index, replicate, ...).  Streams are therefore independent of evaluation
order: drawing user 3's samples before user 0's, or slot 5 before slot 1,
yields the same numbers as any other order.
"""

from __future__ import annotations

import numpy as np

_FOLD = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# numpy reads a key list holding an id >= 2**63 as float64, exact up to 2**53
# only: a larger seed could share its streams with another (2**53 + 1 with 2**53)
MAX_SEED = 2**53


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the generator for stream ``(seed, *ids)``.

    The i-th variate of a stream is fixed by the key alone, so a consumer
    that needs samples ``[0, k)`` can draw them in one call and a consumer
    that needs only sample ``i`` can skip ahead by drawing ``i + 1``.
    """
    key1 = 0
    for i in ids:
        key1 = (key1 * _FOLD + int(i) + 1) & _MASK
    return np.random.Generator(np.random.Philox(key=[int(seed) & _MASK, key1]))
