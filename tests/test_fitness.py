"""The two-step objective, its absorbing states, and the online discounted residual."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlonemax import MutationKind, OutcomeKind, Population, RandomStream, classify, run_online
from tlonemax.fitness import discount_residual, fitness


def _v(bits):
    return sum(bit << i for i, bit in enumerate(bits))


class TestObjective:
    def test_maximum_value(self):
        assert fitness(0, 4, 4) == 4

    def test_penalty_cancels_all_ones(self):
        assert fitness(1, 4, 4) == 0

    def test_minimum_value(self):
        assert fitness(1, 0, 4) == -4

    @given(st.integers(0, 1), st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_range_and_formula(self, prev, bits):
        n = len(bits)
        value = fitness(prev, _v(bits).bit_count(), n)
        assert -n <= value <= n
        assert value == sum(bits) - n * prev

    def test_prev_bit_validated(self):
        with pytest.raises(ValueError):
            Population(3, [(2, 0)])

    def test_optimum_is_unique_pattern(self):
        assert classify(0, _v([1, 1, 1]), 3) is OutcomeKind.OPTIMUM_FOUND
        assert classify(1, _v([1, 1, 1]), 3) is not OutcomeKind.OPTIMUM_FOUND
        assert classify(0, _v([1, 1, 0]), 3) is not OutcomeKind.OPTIMUM_FOUND


class TestOnlineObjective:
    def test_residual_empty_below_t2(self):
        assert discount_residual([1, 1, 1], 1) == 0.0

    def test_residual_single_term(self):
        # only tau=2 contributes: e^(-t+1) * x1 of step 0
        assert discount_residual([1, 0, 0], 2) == pytest.approx(math.exp(-1))
        assert discount_residual([0, 1, 1], 2) == 0.0

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=20))
    def test_residual_bounded_by_geometric_series(self, first_bits):
        t = len(first_bits) - 1
        r = discount_residual(first_bits, t)
        assert 0.0 <= r <= 1.0 / (math.e - 1.0) + 1e-12

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=20))
    def test_residual_recurrence(self, first_bits):
        # r(t+1) = (r(t) + x1^(t-1)) / e
        t = len(first_bits) - 1
        lhs = discount_residual(first_bits, t)
        rhs = (discount_residual(first_bits, t - 1) + first_bits[t - 2]) / math.e
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_objective_is_residual_plus_final_pair(self):
        # the incremental residual equals the direct sum over the first bits
        # of x^0 (replayed from the same stream) and of every accepted string
        n = 10
        for seed, kind in ((15, MutationKind.BITWISE), (21, MutationKind.ONE_BIT)):
            records = run_online(n, kind, time_horizon=60, budget_per_step=500,
                                 rng=RandomStream(seed))
            assert len(records) >= 5 and any(r.b for r in records)  # residual not all zero
            first_bits = [RandomStream(seed).random_bits(n) & 1]
            for record in records:
                first_bits.append(record.b)  # the stored bit is x_1 of step t-1
                assert record.ones == record.value.bit_count()
                expected = (discount_residual(first_bits, record.time_step)
                            + fitness(record.b, record.ones, n))
                assert record.objective == pytest.approx(expected, rel=0, abs=1e-12)
