"""Seeded random streams and the two mutation operators.

Bit strings are plain Python integers (bit i of the integer is position i+1
of the string) carried with their ones-count, so fitness evaluation and
mutation deltas are O(1) word operations.  Each mutation operator takes and
returns the raw ``(value, ones)`` pair.

A stream draws from one block of raw 64-bit words, filled lazily: the first
fill is 16 words and each later fill doubles, up to 4096, so a short trial
generates about as many words as it uses.  Uniform bits, bounded indices
and position subsets all consume that one block; binomial flip counts come
from a block per ``(n, rate)`` that grows the same way.

Building a numpy generator costs about as much as a short trial, so a
stream can be re-keyed in place: ``rekey(seed, stream)`` resets the Philox
state and the blocks, and its draws are identical to a fresh
``RandomStream(seed, stream)``.
"""

from __future__ import annotations

import numpy as np

_FIRST_FILL = 16
_MAX_FILL = 4096
_WORD_MASK = (1 << 64) - 1
_ZERO_WORDS = (0, 0, 0, 0)  # Philox counter and output buffer at the start of a key


class RandomStream:
    """Counter-based random stream keyed by (seed, stream index).

    Identical (seed, stream) pairs replay the identical draw sequence;
    distinct stream indices give statistically independent streams, so
    parallel trials never share state.  Backed by numpy's Philox generator,
    whose 128-bit key holds the two identifiers directly.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.generator = np.random.Generator(np.random.Philox(key=0))
        self.rekey(seed, stream)

    def rekey(self, seed: int, stream: int = 0) -> RandomStream:
        """Restart this stream as ``RandomStream(seed, stream)`` would start, and return it."""
        self.generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS,
                      "key": (int(seed) & _WORD_MASK, int(stream) & _WORD_MASK)},
            "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        # unread draws, last-drawn first so list.pop() reads them in order
        self._words: list[int] = []
        self._next_fill = _FIRST_FILL
        self._flip_blocks: dict[tuple[int, float], tuple[list[int], int]] = {}
        return self

    def _refill(self) -> list[int]:
        """Replace the spent word block with the next, larger one."""
        size = self._next_fill
        self._words = self.generator.integers(0, 1 << 64, size=size, dtype=np.uint64).tolist()
        self._words.reverse()
        self._next_fill = min(2 * size, _MAX_FILL)
        return self._words

    def random_bits(self, n: int) -> int:
        """Uniform n-bit integer: ceil(n/64) words, the first in the low bits."""
        raw = 0
        for shift in range(0, n, 64):
            raw |= (self._words or self._refill()).pop() << shift
        return raw & ((1 << n) - 1)

    def next_index(self, k: int) -> int:
        """Uniform integer in [0, k) by multiply-shift with rejection (Lemire 2019)."""
        m = (self._words or self._refill()).pop() * k
        if (m & _WORD_MASK) < k:  # only then can the low word fall below 2**64 % k
            reject_below = (1 << 64) % k
            while (m & _WORD_MASK) < reject_below:
                m = (self._words or self._refill()).pop() * k
        return m >> 64

    def next_flip_count(self, n: int, rate: float) -> int:
        """Binomial(n, rate) draw from a block that grows like the word block."""
        key = (n, rate)
        block, next_fill = self._flip_blocks.get(key, ((), _FIRST_FILL))
        if not block:
            block = self.generator.binomial(n, rate, size=next_fill).tolist()
            block.reverse()
            self._flip_blocks[key] = (block, min(2 * next_fill, _MAX_FILL))
        return block.pop()

    def distinct_indices(self, n: int, m: int) -> set[int]:
        """A uniform m-subset of [0, n) from exactly m index draws (Floyd's algorithm)."""
        chosen: set[int] = set()
        for j in range(n - m, n):
            t = self.next_index(j + 1)
            chosen.add(j if t in chosen else t)
        return chosen


def mutate_value_one_bit(value: int, ones: int, n: int, rng: RandomStream) -> tuple[int, int]:
    """Flip one uniformly chosen bit; the result always has Hamming distance 1."""
    bit = 1 << rng.next_index(n)
    return value ^ bit, ones + (-1 if value & bit else 1)


def mutate_value_bitwise(value: int, ones: int, n: int, rng: RandomStream) -> tuple[int, int]:
    """Independently flip each bit with probability 1/n; may return ``value`` unchanged.

    The flip count is Binomial(n, 1/n) with the flipped positions a uniform
    subset of that size, which is distribution-identical to per-bit flips.
    ``ones`` must be ``value``'s popcount.
    """
    m = rng.next_flip_count(n, 1.0 / n)
    if m == 0:
        return value, ones
    mask = 0
    for pos in rng.distinct_indices(n, m):
        mask |= 1 << pos
    new = value ^ mask
    return new, new.bit_count()
