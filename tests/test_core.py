"""Random streams and the raw mutation operators."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from tlonemax import RandomStream, mutate_value_bitwise, mutate_value_one_bit

# Significance level of every chi-square test below, fixed before any was
# run: a correct sampler fails one of them with probability 1e-6.
_ALPHA = 1e-6


def _chi_square(counts, expected) -> float:
    counts = np.asarray(counts, dtype=float)
    return float(((counts - expected) ** 2 / expected).sum())


class _FillSizes:
    """Wraps a numpy Generator and records the size of every block fill."""

    def __init__(self, generator):
        self._generator = generator
        self.sizes = []

    def integers(self, *args, size, **kwargs):
        self.sizes.append(size)
        return self._generator.integers(*args, size=size, **kwargs)

    def binomial(self, *args, size):
        self.sizes.append(size)
        return self._generator.binomial(*args, size=size)


def draws(rng):
    """Every consumer of a stream in turn, 3000 times over."""
    return [(rng.random_bits(130), rng.next_index(769), rng.next_flip_count(40, 1 / 40),
             rng.subset_mask(40, 5)) for _ in range(3000)]


def _floyd_reference(rng, n, m):
    """Floyd's m-subset of [0, n) as a set of positions, drawn as the package draws it."""
    chosen = set()
    for j in range(n - m, n):
        t = rng.next_index(j + 1)
        chosen.add(j if t in chosen else t)
    return chosen


def _mask(positions):
    return sum(1 << p for p in positions)


class TestRandomStream:
    def test_same_key_replays_identically(self):
        a = RandomStream(12, 34)
        b = RandomStream(12, 34)
        assert [a.random_bits(20) for _ in range(50)] == [b.random_bits(20) for _ in range(50)]
        assert [a.next_index(7) for _ in range(50)] == [b.next_index(7) for _ in range(50)]
        assert [a.next_flip_count(10, 0.1) for _ in range(50)] == [
            b.next_flip_count(10, 0.1) for _ in range(50)
        ]

    def test_distinct_streams_differ(self):
        a = RandomStream(12, 34)
        b = RandomStream(12, 35)
        assert [a.random_bits(32) for _ in range(8)] != [b.random_bits(32) for _ in range(8)]

    def test_next_index_in_range(self):
        rng = RandomStream(0)
        assert all(0 <= rng.next_index(13) < 13 for _ in range(5000))

    def test_distinct_indices_are_distinct(self):
        rng = RandomStream(1)
        for m in (1, 2, 3, 7):
            mask = rng.subset_mask(10, m)
            assert mask.bit_count() == m  # m distinct positions
            assert mask >> 10 == 0  # all in [0, 10)

    def test_random_bits_masked_to_width(self):
        rng = RandomStream(5)
        assert all(rng.random_bits(11) < (1 << 11) for _ in range(2000))


class TestSampler:
    @pytest.mark.parametrize("k", [2, 3, 6, 7, 769, 1501])
    def test_next_index_uniform(self, k):
        draws = max(20_000, 40 * k)
        rng = RandomStream(71, k)
        counts = np.bincount([rng.next_index(k) for _ in range(draws)], minlength=k)
        assert len(counts) == k and counts.all()  # every value in [0, k), nothing above
        assert _chi_square(counts, draws / k) < chi2.isf(_ALPHA, k - 1)

    def test_rejection_keeps_a_huge_range_uniform(self):
        # k = 3 * 2**62 rejects a quarter of all words (2**64 % k = 2**62).
        # Without the rejection the residues mod 3 would come out 2:1:1.
        k, draws = 3 << 62, 30_000
        rng = RandomStream(72)
        values = [rng.next_index(k) for _ in range(draws)]
        assert all(0 <= v < k for v in values)
        assert {v >> 62 for v in values} == {0, 1, 2}  # every third of [0, k)
        residues = np.bincount([v % 3 for v in values], minlength=3)
        assert _chi_square(residues, draws / 3) < chi2.isf(_ALPHA, 2)

    def test_floyd_subsets_uniform(self):
        draws = 20_000
        rng = RandomStream(73)
        counts = Counter(rng.subset_mask(5, 2) for _ in range(draws))
        assert set(counts) == {_mask(c) for c in combinations(range(5), 2)}
        assert _chi_square(list(counts.values()), draws / 10) < chi2.isf(_ALPHA, 9)

    def test_full_subset_is_every_position(self):
        rng = RandomStream(74)
        for n in (1, 2, 7, 64, 200):
            assert rng.subset_mask(n, n) == (1 << n) - 1

    def test_subset_mask_is_floyds_set(self):
        # the mask holds exactly the positions of the set-based algorithm, from
        # the same draws: the next draw of both streams agrees after each call
        for seed in range(4):
            a, b = RandomStream(78, seed), RandomStream(78, seed)
            for n in (1, 2, 7, 64, 200):
                for m in sorted(set(range(min(n, 8) + 1)) | {n}):
                    assert a.subset_mask(n, m) == _mask(_floyd_reference(b, n, m))
                    assert a.random_bits(64) == b.random_bits(64)

    def test_random_bits_four_words(self):
        n, trials = 200, 4000
        rng = RandomStream(75)
        values = [rng.random_bits(n) for _ in range(trials)]
        assert all(v >> n == 0 for v in values)
        mean_ones = sum(v.bit_count() for v in values) / trials
        assert abs(mean_ones - n / 2) < 4.0 * np.sqrt(n / 4 / trials)
        per_position = [sum(v >> i & 1 for v in values) for i in range(n)]
        assert 2 * _chi_square(per_position, trials / 2) < chi2.isf(_ALPHA, n)

    def test_fills_double_up_to_the_cap(self):
        rng = RandomStream(76)
        rng.generator = fills = _FillSizes(rng.generator)
        for _ in range(13_000):  # 16 + 32 + ... + 4096 = 8176 words, then two capped fills
            rng.next_index(2)
        assert fills.sizes == [16 << i for i in range(9)] + [4096, 4096]
        fills.sizes.clear()
        for _ in range(13_000):
            rng.next_flip_count(6, 1 / 6)
        assert fills.sizes == [16 << i for i in range(9)] + [4096, 4096]

    def test_a_new_flip_pair_restarts_the_flip_block(self):
        # a run of reads at one (n, rate) continues its block; a read at another
        # pair drops the unread counts and fills that pair's block from 16 again
        keys = [(6, 1 / 6), (12, 1 / 6), (6, 0.5), (40, 1 / 40)]
        rng, pick = RandomStream(80), RandomStream(81)
        generator = RandomStream(80).generator
        key, block, fill = None, [], 16
        for _ in range(300):
            new_key = keys[pick.next_index(len(keys))]
            if new_key != key:
                key, block, fill = new_key, [], 16
            for _ in range(1 + pick.next_index(100)):
                if not block:
                    block = generator.binomial(*key, size=fill).tolist()[::-1]
                    fill = min(2 * fill, 4096)
                assert rng.next_flip_count(*key) == block.pop()

    def test_interleaved_draws_replay(self):
        assert draws(RandomStream(77, 3)) == draws(RandomStream(77, 3))

    def test_rekey_replays_a_fresh_stream(self):
        rng = RandomStream(1, 2)
        for _ in range(10):  # leave part-used word and flip blocks, and a larger next fill
            rng.random_bits(130)
            rng.next_index(769)
            rng.next_flip_count(40, 1 / 40)
            rng.subset_mask(40, 5)
        rng.next_flip_count(100, 0.5)  # rejection sampling: a part-used Philox output buffer
        assert rng.generator.bit_generator.state["buffer_pos"] < 4
        assert rng.rekey(77, 3) is rng
        assert draws(rng) == draws(RandomStream(77, 3))


class TestMutation:
    def test_one_bit_mutation_hamming_one(self):
        n = 16
        rng = RandomStream(2)
        value = rng.random_bits(n)
        ones = value.bit_count()
        for _ in range(500):
            new, new_ones = mutate_value_one_bit(value, ones, n, rng)
            assert (value ^ new).bit_count() == 1
            assert new_ones == new.bit_count()
            value, ones = new, new_ones

    def test_bitwise_mutation_preserves_length(self):
        n = 12
        rng = RandomStream(3)
        value = rng.random_bits(n)
        ones = value.bit_count()
        for _ in range(500):
            value, ones = mutate_value_bitwise(value, ones, n, rng)
            assert 0 <= value < (1 << n)
            assert ones == value.bit_count()

    def test_bitwise_flip_count_distribution(self):
        # mean flips is n * (1/n) = 1; P(no flip) = (1-1/n)^n
        n, trials = 20, 20000
        rng = RandomStream(4)
        flips = [mutate_value_bitwise(0, 0, n, rng)[1] for _ in range(trials)]
        mean = sum(flips) / trials
        assert abs(mean - 1.0) < 4.0 * np.sqrt(1.0 / trials)  # variance ~ 1
        p0 = sum(f == 0 for f in flips) / trials
        expect0 = (1 - 1 / n) ** n
        assert abs(p0 - expect0) < 4.0 * np.sqrt(expect0 * (1 - expect0) / trials)

    def test_bitwise_mutation_is_xor_with_floyds_mask(self):
        # against value ^ mask with a fresh popcount, on the 0-, 1- and
        # multi-flip paths alike, with the same draws consumed
        paths = Counter()
        for n in (2, 3, 7, 64, 200):
            for seed in range(3):
                a, b = RandomStream(79, seed), RandomStream(79, seed)
                value = a.random_bits(n)
                assert b.random_bits(n) == value
                ones = value.bit_count()
                for _ in range(300):
                    m = b.next_flip_count(n, 1.0 / n)
                    new = value ^ _mask(_floyd_reference(b, n, m))
                    assert mutate_value_bitwise(value, ones, n, a) == (new, new.bit_count())
                    assert a.random_bits(64) == b.random_bits(64)
                    paths[min(m, 2)] += 1
                    value, ones = new, new.bit_count()
        assert min(paths[0], paths[1], paths[2]) > 100

    def test_uniform_init_balance(self):
        n, trials = 32, 4000
        rng = RandomStream(6)
        mean_ones = sum(rng.random_bits(n).bit_count() for _ in range(trials)) / trials
        assert abs(mean_ones - n / 2) < 4.0 * np.sqrt(n / 4 / trials)

    @settings(max_examples=25)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_mutation_determinism(self, n, seed):
        value = RandomStream(seed).random_bits(n)
        ones = value.bit_count()
        y1 = mutate_value_bitwise(value, ones, n, RandomStream(seed, 1))
        y2 = mutate_value_bitwise(value, ones, n, RandomStream(seed, 1))
        assert y1 == y2
