"""Seeded random streams and the two mutation operators.

Bit strings are plain Python integers (bit i of the integer is position i+1
of the string) carried with their ones-count, so fitness evaluation and
mutation deltas are O(1) word operations.  Each mutation operator takes and
returns the raw ``(value, ones)`` pair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_BLOCK = 4096


class RandomStream:
    """Counter-based random stream keyed by (seed, stream index).

    Identical (seed, stream) pairs replay the identical draw sequence;
    distinct stream indices give statistically independent streams, so
    parallel trials never share state.  Backed by numpy's Philox generator,
    whose 128-bit key holds the two identifiers directly.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream) & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))
        # block caches for hot loops: {n: (array, cursor)}
        self._index_blocks: dict[int, tuple[np.ndarray, int]] = {}
        self._flip_blocks: dict[tuple[int, float], tuple[np.ndarray, int]] = {}

    def random_bits(self, n: int) -> int:
        """Uniform n-bit integer."""
        nbytes = (n + 7) // 8
        raw = int.from_bytes(self.generator.bytes(nbytes), "little")
        return raw & ((1 << n) - 1)

    def next_index(self, n: int) -> int:
        """Uniform integer in [0, n), drawn from a refillable block."""
        block, cursor = self._index_blocks.get(n, (None, 0))
        if block is None or cursor >= len(block):
            block = self.generator.integers(0, n, size=_BLOCK)
            cursor = 0
        self._index_blocks[n] = (block, cursor + 1)
        return int(block[cursor])

    def next_flip_count(self, n: int, rate: float) -> int:
        """Binomial(n, rate) draw, blocked for speed."""
        key = (n, rate)
        block, cursor = self._flip_blocks.get(key, (None, 0))
        if block is None or cursor >= len(block):
            block = self.generator.binomial(n, rate, size=_BLOCK)
            cursor = 0
        self._flip_blocks[key] = (block, cursor + 1)
        return int(block[cursor])

    def distinct_indices(self, n: int, m: int) -> Sequence[int]:
        """m distinct uniform positions in [0, n)."""
        if m == 1:
            return (self.next_index(n),)
        if m == 2:
            a = self.next_index(n)
            b = self.next_index(n)
            while b == a:
                b = self.next_index(n)
            return (a, b)
        return self.generator.choice(n, size=m, replace=False)


def mutate_value_one_bit(value: int, ones: int, n: int, rng: RandomStream) -> tuple[int, int]:
    """Flip one uniformly chosen bit; the result always has Hamming distance 1."""
    bit = 1 << rng.next_index(n)
    return value ^ bit, ones + (-1 if value & bit else 1)


def mutate_value_bitwise(value: int, ones: int, n: int, rng: RandomStream) -> tuple[int, int]:
    """Independently flip each bit with probability 1/n; may return ``value`` unchanged.

    The flip count is Binomial(n, 1/n) with the flipped positions a uniform
    subset of that size, which is distribution-identical to per-bit flips.
    """
    m = rng.next_flip_count(n, 1.0 / n)
    if m == 0:
        return value, ones
    mask = 0
    for pos in rng.distinct_indices(n, m):
        mask |= 1 << int(pos)
    new = value ^ mask
    return new, ones + (new.bit_count() - value.bit_count())
