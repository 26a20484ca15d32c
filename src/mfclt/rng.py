"""Deterministic, schedule-independent random streams.

Every stochastic routine in this package draws from a counter-based
generator keyed by (seed, purpose tags, replication index).  A stream is a
pure function of its key, so results do not depend on evaluation order,
chunking, or the number of worker threads.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_int(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *tags: object) -> np.random.Generator:
    """Generator keyed by (seed, *tags); same key, same stream, any schedule."""
    entropy = (int(seed) & _MASK64,) + tuple(_tag_int(t) for t in tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def map_replications(fn: Callable[[int], object], r: int, workers: int) -> list:
    """[fn(0), ..., fn(r - 1)], on a pool of ``workers`` threads when > 1.

    Task ``i`` (one replication, or one chunk of them) must draw only from
    streams keyed by its own replications; the list is then the same for
    every worker count.
    """
    if workers <= 1:
        return [fn(rep) for rep in range(r)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, range(r)))
