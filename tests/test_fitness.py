"""The two-step objective and its absorbing states."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlonemax import OutcomeKind, Population, classify
from tlonemax.fitness import fitness

EVENT_I = OutcomeKind.STAGNATED_EVENT_I
EVENT_II = OutcomeKind.STAGNATED_EVENT_II
OPTIMUM = OutcomeKind.OPTIMUM_FOUND


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


class TestEvents:
    def test_event_i_requires_pattern_01_and_missing_one(self):
        assert classify(0, _v([1, 0, 1]), 3) is EVENT_I
        assert classify(0, _v([1, 1, 1]), 3) is not EVENT_I  # rest all ones: the optimum
        assert classify(1, _v([1, 0, 1]), 3) is not EVENT_I  # wrong stored bit
        assert classify(0, _v([0, 0, 1]), 3) is not EVENT_I  # current first bit 0

    def test_event_ii_is_stored_one_with_all_ones(self):
        assert classify(1, _v([1, 1, 1]), 3) is EVENT_II
        assert classify(1, _v([1, 1, 0]), 3) is not EVENT_II
        assert classify(0, _v([1, 1, 1]), 3) is not EVENT_II

    def test_optimum_is_not_an_event(self):
        assert classify(0, _v([1, 1, 1]), 3) is OPTIMUM

    @given(st.integers(0, 1), st.lists(st.integers(0, 1), min_size=2, max_size=16))
    def test_events_and_optimum_mutually_exclusive(self, prev, bits):
        # the definitions, written out independently of classify
        event_i = prev == 0 and bits[0] == 1 and not all(bits[1:])
        event_ii = prev == 1 and all(bits)
        optimum = prev == 0 and all(bits)
        assert event_i + event_ii + optimum <= 1
        expected = EVENT_I if event_i else EVENT_II if event_ii else OPTIMUM if optimum else None
        assert classify(prev, _v(bits), len(bits)) is expected
