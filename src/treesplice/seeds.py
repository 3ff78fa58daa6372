"""Deterministic randomness: named, counter-based substreams.

Every random operation in the package draws from a stream identified by a
64-bit seed plus a name path (e.g. ``substream(seed, "tree", 3)``).  Streams
are backed by Philox, a counter-based generator, so identical (seed, path)
always reproduces the same output and distinct paths are independent.
Graphs and samplers never share a bare generator; parallel callers use
distinct paths.

The scalar kernels draw with no floating point: ``word_stream`` hands out raw
64-bit words, and a draw below b (``below``, inlined by the walk loops) skips
words at or above 2^64 - (2^64 mod b) and returns the next word mod b.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Callable

import numpy as np

WORDS = 1 << 64  # the number of 64-bit words


def _digest(seed: int, path: tuple) -> bytes:
    seed = int(seed)
    if not 0 <= seed < WORDS:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    name = "/".join(str(p) for p in path)
    return hashlib.blake2b(
        name.encode("utf-8"), digest_size=16, key=seed.to_bytes(8, "little")
    ).digest()


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for (seed, path).  Same inputs, bit-identical stream."""
    key = int.from_bytes(_digest(seed, path), "little")
    return np.random.Generator(np.random.Philox(key=key))


def child_seed(seed: int, *path) -> int:
    """Derive a 64-bit child seed, for handing to an operation that seeds itself."""
    return int.from_bytes(_digest(seed, path)[:8], "little")


def word_stream(gen: np.random.Generator, size: int = 64) -> Callable[[], int]:
    """Zero-argument callable returning ``gen``'s raw 64-bit words one by one,
    read in blocks of ``size`` that grow fourfold up to 16384."""

    def blocks():
        n = size
        while True:
            yield gen.integers(0, WORDS, size=n, dtype=np.uint64).tolist()
            n = min(4 * n, 16384)

    return chain.from_iterable(blocks()).__next__


def below(word: Callable[[], int], bound: int) -> int:
    """Uniform integer in [0, bound) by exact rejection from the stream ``word``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    limit = WORDS - WORDS % bound
    w = word()
    while w >= limit:
        w = word()
    return w % bound
