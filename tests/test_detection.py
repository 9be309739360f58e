"""The absorbing-state classification, the population detectors, and the census."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tlonemax import (
    OutcomeKind,
    Population,
    RandomStream,
    classify,
    event_I_prime,
    event_II_prime,
    population_census,
)

EVENT_I = OutcomeKind.STAGNATED_EVENT_I
EVENT_II = OutcomeKind.STAGNATED_EVENT_II
OPTIMUM = OutcomeKind.OPTIMUM_FOUND


def _v(bits):
    return sum(bit << i for i, bit in enumerate(bits))


def _slot(prev, bits):
    return (prev, _v(bits))


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


class TestPopulationEvents:
    def test_prime_events_require_every_slot(self):
        stuck = _slot(0, [1, 0, 1])
        free = _slot(0, [0, 0, 1])
        assert event_I_prime(Population(3, [stuck, stuck]))
        assert not event_I_prime(Population(3, [stuck, free]))
        full = _slot(1, [1, 1, 1])
        assert event_II_prime(Population(3, [full, full, full]))
        assert not event_II_prime(Population(3, [full, stuck, full]))

    @settings(max_examples=50)
    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**31))
    def test_prime_events_match_slotwise_scan(self, n, mu, seed):
        pop = Population.random(n, mu, RandomStream(seed))
        kinds = [classify(b, value, n) for b, value, _ in pop.pairs()]
        assert event_I_prime(pop) == all(k is EVENT_I for k in kinds)
        assert event_II_prime(pop) == all(k is EVENT_II for k in kinds)


class TestCensus:
    def test_counts_and_front_structure(self):
        pop = Population(4, [
            _slot(0, [0, 1, 1, 1]),  # (0,0) pattern, fitness 3 -> front, a = 1
            _slot(0, [0, 0, 1, 1]),  # (0,0) pattern, fitness 2 -> d = 1
            _slot(0, [1, 1, 1, 0]),  # (0,1) pattern, fitness 3 -> not above front
            _slot(1, [1, 1, 1, 1]),  # (1,1) pattern
        ])
        report = population_census(pop)
        assert report.pattern_counts == {(0, 0): 2, (0, 1): 1, (1, 0): 0, (1, 1): 1}
        assert report.front_defined
        assert report.best_00_fitness == 3
        assert report.front_zeros == 1
        assert report.m_histogram == {0: 1, 1: 1}
        assert report.undefeated_count == 0
        assert report.front_count == 1
        assert report.interior_count == 3

    def test_undefeated_requires_fitness_above_front(self):
        pop = Population(4, [
            _slot(0, [0, 0, 1, 1]),  # front fitness 2
            _slot(0, [1, 1, 1, 0]),  # (0,1) with fitness 3 > 2: temporarily undefeated
        ])
        report = population_census(pop)
        assert report.undefeated_count == 1

    def test_front_undefined_without_00_slot(self):
        pop = Population(3, [_slot(1, [0, 1, 1]), _slot(0, [1, 0, 1])])
        report = population_census(pop)
        assert not report.front_defined
        assert report.best_00_fitness is None
        assert report.front_zeros is None
        assert report.m_histogram == {}

    @settings(max_examples=50)
    @given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**31))
    def test_partition_covers_population(self, n, mu, seed):
        pop = Population.random(n, mu, RandomStream(seed))
        report = population_census(pop)
        assert sum(report.pattern_counts.values()) == mu
        if report.front_defined:
            assert report.undefeated_count + report.front_count + report.interior_count == mu
            assert sum(report.m_histogram.values()) == report.pattern_counts[(0, 0)]
            assert min(report.m_histogram) == 0  # the front itself sits at d = 0
