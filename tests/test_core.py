"""Random streams and the raw mutation operators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlonemax import RandomStream, mutate_value_bitwise, mutate_value_one_bit


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
            idx = list(rng.distinct_indices(10, m))
            assert len(set(idx)) == m
            assert all(0 <= i < 10 for i in idx)

    def test_random_bits_masked_to_width(self):
        rng = RandomStream(5)
        assert all(rng.random_bits(11) < (1 << 11) for _ in range(2000))


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
