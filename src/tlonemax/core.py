"""Seeded random streams and the two mutation operators.

Bit strings are plain Python integers (bit i of the integer is position i+1
of the string) carried with their ones-count, so fitness evaluation and
mutation deltas are O(1) word operations.  Each mutation operator takes and
returns the raw ``(value, ones)`` pair.

A stream draws from one block of raw 64-bit words, filled lazily: the first
fill is 16 words and each later fill doubles, up to 4096, so a short trial
generates about as many words as it uses.  Uniform bits, bounded indices
and position-subset masks all consume that one block; binomial flip counts
come from a block of one ``(n, rate)`` that grows the same way, and a read
at another ``(n, rate)`` drops it and starts that pair's block afresh.  A
trial mutates at one n with rate 1/n, so it never switches.

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
        self._flip_n, self._flip_rate = 0, 0.0
        self._flip_block: list[int] = []
        self._next_flip_fill = _FIRST_FILL
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

    def _refill_flips(self) -> list[int]:
        """Replace the spent flip-count block with the next, larger one of the same pair."""
        size = self._next_flip_fill
        block = self.generator.binomial(self._flip_n, self._flip_rate, size=size).tolist()
        block.reverse()
        self._flip_block = block
        self._next_flip_fill = min(2 * size, _MAX_FILL)
        return block

    def next_flip_count(self, n: int, rate: float) -> int:
        """Binomial(n, rate) draw from a block that grows like the word block."""
        if n != self._flip_n or rate != self._flip_rate:  # a new pair: a block from the first fill
            self._flip_n, self._flip_rate = n, rate
            self._flip_block, self._next_flip_fill = [], _FIRST_FILL
        return (self._flip_block or self._refill_flips()).pop()

    def subset_mask(self, n: int, m: int) -> int:
        """A uniform m-subset of [0, n) as an n-bit mask, from exactly m index draws (Floyd)."""
        mask = 0
        for j in range(n - m, n):  # draw in [0, j]; a position already taken becomes j
            bit = 1 << self.next_index(j + 1)
            mask |= (1 << j) if mask & bit else bit
        return mask


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
    if m == 1:  # Floyd's one draw: the one-bit flip
        return mutate_value_one_bit(value, ones, n, rng)
    new = value ^ rng.subset_mask(n, m)
    return new, new.bit_count()
