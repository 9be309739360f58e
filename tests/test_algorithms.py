"""Single-individual and population algorithm drivers."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlonemax import (
    MutationKind,
    OutcomeKind,
    Population,
    RandomStream,
    TrialOutcome,
    alg1_moves,
    classify,
    mutate_value_bitwise,
    mutate_value_one_bit,
    population_census,
    run_alg1,
    run_alg2,
)
from tlonemax.algorithms import default_budget_alg1, default_budget_alg2
from tlonemax.fitness import accepts, fitness

EVENT_I = OutcomeKind.STAGNATED_EVENT_I
EVENT_II = OutcomeKind.STAGNATED_EVENT_II


def _slot(prev, bits):
    return (prev, sum(bit << i for i, bit in enumerate(bits)))


def _rescanned_census(pop):
    """(slots in event I, slots in event II, whether a slot is the optimum) by a full scan."""
    kinds = [classify(b, value & 1, ones, pop.n) for b, value, ones in pop.pairs()]
    return kinds.count(EVENT_I), kinds.count(EVENT_II), OutcomeKind.OPTIMUM_FOUND in kinds


def _check_census(pop):
    """A full rescan of ``pop`` must agree with its incremental census."""
    for i in range(pop.mu):
        assert pop._ones[i] == pop._value[i].bit_count()
        # the class stored when the slot entered
        assert pop._kind[i] is classify(pop._prev[i], pop._value[i] & 1, pop._ones[i], pop.n)
    assert _rescanned_census(pop) == (
        pop.event_i_count, pop.event_ii_count, pop.optimum_generated)
    # every slot sits exactly once, in the bucket of its fitness
    assert sorted(i for bucket in pop._buckets.values() for i in bucket) == list(range(pop.mu))
    for fit, bucket in pop._buckets.items():
        assert bucket
        for i in bucket:
            assert fitness(pop._prev[i], pop._ones[i], pop.n) == fit


def _manual_alg1(n, kind, budget, rng):
    """alg1 spelled out one generation at a time from the public operators."""
    mutate = mutate_value_one_bit if kind is MutationKind.ONE_BIT else mutate_value_bitwise
    b = rng.random_bits(n) & 1
    value = rng.random_bits(n)
    ones = value.bit_count()
    generation = 1
    while classify(b, value & 1, ones, n) is None:
        if generation >= budget:
            return OutcomeKind.BUDGET_EXHAUSTED, budget
        off_value, off_ones = mutate(value, ones, n, rng)
        if accepts(b, ones, value & 1, off_ones, n):
            b, value, ones = value & 1, off_value, off_ones
        generation += 1
    return classify(b, value & 1, ones, n), generation


class TestAlg1Step:
    @settings(max_examples=60)
    @given(st.integers(2, 24), st.integers(0, 2**31), st.sampled_from(list(MutationKind)))
    def test_fitness_never_decreases(self, n, seed, kind):
        rng = RandomStream(seed)
        b = rng.random_bits(n) & 1
        value = rng.random_bits(n)
        ones = value.bit_count()
        last = 0
        for g, new_b, new_value, new_ones in alg1_moves(b, value, n, kind, rng, 60):
            assert last < g <= 60
            assert fitness(new_b, new_ones, n) >= fitness(b, ones, n)
            assert new_b == value & 1  # the old current first bit is stored
            assert new_ones == new_value.bit_count()
            last, b, value, ones = g, new_b, new_value, new_ones

    def test_tie_accepts_offspring(self):
        # from (0, 011) an offspring with equal fitness (two flips trading a
        # one for a zero) must be accepted: the current string changes while
        # the ones-count stays put
        n, start = 3, 0b110
        rng = RandomStream(11)

        def tie_move_seen(generations):
            while generations > 0:
                for g, _, value, ones in alg1_moves(0, start, n, MutationKind.BITWISE, rng,
                                                    generations):
                    if ones == 3:  # improved away; restart the experiment
                        break
                    if value != start:
                        return True
                else:
                    return False
                generations -= g
            return False

        assert tie_move_seen(300)

    def test_run_matches_manual_replay(self):
        # run_alg1 consumes its stream exactly like two initial strings plus
        # one mutation per generation, and stops at the same generation
        n = 6
        for kind in MutationKind:
            for budget in (3, None):
                for seed in range(10):
                    rng, manual = RandomStream(seed), RandomStream(seed)
                    outcome = run_alg1(n, kind, budget, rng)
                    want = _manual_alg1(n, kind, budget or default_budget_alg1(n), manual)
                    assert (outcome.kind, outcome.generation) == want
                    assert rng.random_bits(64) == manual.random_bits(64)


class TestRunAlg1:
    def test_outcome_determinism(self):
        a = run_alg1(8, MutationKind.ONE_BIT, rng=RandomStream(3, 7))
        b = run_alg1(8, MutationKind.ONE_BIT, rng=RandomStream(3, 7))
        assert a == b

    def test_all_outcomes_reachable(self):
        kinds = {run_alg1(4, MutationKind.BITWISE, rng=RandomStream(0, s)).kind
                 for s in range(200)}
        assert {OutcomeKind.OPTIMUM_FOUND, OutcomeKind.STAGNATED_EVENT_I,
                OutcomeKind.STAGNATED_EVENT_II} <= kinds

    def test_budget_exhaustion_reported(self):
        outcome = run_alg1(8, MutationKind.ONE_BIT, budget=1, rng=RandomStream(1))
        assert outcome.kind in (OutcomeKind.BUDGET_EXHAUSTED, OutcomeKind.OPTIMUM_FOUND,
                                OutcomeKind.STAGNATED_EVENT_I, OutcomeKind.STAGNATED_EVENT_II)
        assert outcome.generation == 1

    def test_no_early_exit_never_reports_events(self):
        for s in range(30):
            outcome = run_alg1(4, MutationKind.BITWISE, budget=300,
                               rng=RandomStream(2, s), early_exit=False)
            assert outcome.kind in (OutcomeKind.OPTIMUM_FOUND, OutcomeKind.BUDGET_EXHAUSTED)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_alg1(1, MutationKind.ONE_BIT)
        with pytest.raises(ValueError):
            run_alg1(4, MutationKind.ONE_BIT, budget=0)

    def test_default_budgets(self):
        assert default_budget_alg1(10) == 10_000
        assert default_budget_alg2(10, 50) == 50_000


class TestPopulation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 12), st.integers(0, 2**31))
    def test_incremental_census_matches_full_rescan(self, n, mu, seed):
        rng = RandomStream(seed)
        pop = Population.random(n, mu, rng)
        _check_census(pop)
        for _ in range(50):
            list(pop.evolve(rng, 1))
            _check_census(pop)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 12), st.integers(0, 2**31))
    def test_min_fitness_never_decreases(self, n, mu, seed):
        rng = RandomStream(seed)
        pop = Population.random(n, mu, rng)
        low = min(pop._buckets)
        for _ in range(80):
            list(pop.evolve(rng, 1))
            _check_census(pop)
            assert min(pop._buckets) >= low
            low = min(pop._buckets)

    def test_size_is_constant(self):
        rng = RandomStream(9)
        pop = Population.random(6, 5, rng)
        for _ in range(200):
            list(pop.evolve(rng, 1))
        assert pop.mu == 5 and sum(1 for _ in pop.pairs()) == 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**31))
    @example(2, 7, 0)  # optima replace an event-I slot and, silently, unclassed slots
    def test_chunking_does_not_matter(self, n, mu, seed):
        # G one-generation calls and one G-generation call make the same
        # draws, yield at the same generations, and leave the same state; a
        # yield comes exactly when a full rescan's census changes
        generations = 150
        one_rng, chunk_rng = RandomStream(seed), RandomStream(seed)
        one, chunk = Population.random(n, mu, one_rng), Population.random(n, mu, chunk_rng)
        one_yields = []
        census = _rescanned_census(one)
        for g in range(1, generations + 1):
            yields = list(one.evolve(one_rng, 1))
            _check_census(one)
            before, census = census, _rescanned_census(one)
            assert yields == ([1] if census != before else [])
            one_yields += [g] * len(yields)
        chunk_yields = []
        for g in chunk.evolve(chunk_rng, generations):
            _check_census(chunk)  # the census is current at each yield
            chunk_yields.append(g)
        _check_census(chunk)
        assert chunk_yields == one_yields
        assert list(chunk.pairs()) == list(one.pairs())
        assert chunk._kind == one._kind and chunk._buckets == one._buckets
        assert _rescanned_census(chunk) == census
        assert one_rng.next_index(1 << 62) == chunk_rng.next_index(1 << 62)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            Population(3, [])

    def test_value_out_of_range_rejected(self):
        for n, slots in ((3, [(0, 8)]), (3, [(0, -1)]), (0, [(0, 0)])):
            with pytest.raises(ValueError):
                Population(n, slots)

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            Population(3, [(0, 0b111), (0, 0b1111)])  # a 4-bit string among 3-bit ones


class TestRunAlg2:
    def test_determinism(self):
        a = run_alg2(8, 6, rng=RandomStream(5, 1))
        b = run_alg2(8, 6, rng=RandomStream(5, 1))
        assert a == b

    def test_initial_optimum_reports_generation_zero(self):
        # seed hunt: an initial slot that is already (0, all-ones)
        found = None
        for s in range(4000):
            if run_alg2(2, 3, rng=RandomStream(6, s)).generation == 0:
                found = s
                break
        assert found is not None
        assert run_alg2(2, 3, rng=RandomStream(6, found)).kind == OutcomeKind.OPTIMUM_FOUND

    def test_large_population_succeeds(self):
        outcome = run_alg2(8, 100, rng=RandomStream(7, 2))
        assert outcome.kind == OutcomeKind.OPTIMUM_FOUND

    def test_early_exit_reaches_both_events(self):
        # replays each run with a slot-by-slot scan in place of the census
        # counters: the run must stop at the first generation where every
        # slot is in event I, or every slot in event II
        n, mu, budget = 3, 2, 300
        kinds = set()
        for s in range(30):
            outcome = run_alg2(n, mu, budget, RandomStream(2, s))
            kinds.add(outcome.kind)
            rng = RandomStream(2, s)
            pop = Population.random(n, mu, rng)
            expected = TrialOutcome(OutcomeKind.OPTIMUM_FOUND, 0)
            if not pop.optimum_generated:
                expected = TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)
                for g in range(1, budget + 1):
                    slot_kinds = {classify(b, v & 1, k, n) for b, v, k in pop.pairs()}
                    if slot_kinds in ({EVENT_I}, {EVENT_II}):
                        expected = TrialOutcome(slot_kinds.pop(), g)
                        break
                    list(pop.evolve(rng, 1))
                    if pop.optimum_generated:
                        expected = TrialOutcome(OutcomeKind.OPTIMUM_FOUND, g)
                        break
            assert outcome == expected
        assert {EVENT_I, EVENT_II} <= kinds

    # (seed, budget, early_exit) -> outcome of run_alg2(3, 2, budget,
    # RandomStream(2, seed)), frozen from the per-generation loop that read
    # the events at the top of each generation.  Seed 3 is first all in
    # event I after generation 4, seed 11 all in event II after generation
    # 9, seed 6 all in event I after generation 1; seeds 88 and 142 start all
    # in event I and all in event II, seed 12 with the optimum; seed 41 finds
    # it in generation 1, seed 10 in generation 2.
    BUDGET_EDGES = [
        (3, 4, True, "budget", 4), (3, 4, False, "budget", 4),
        (3, 5, True, "event_i", 5), (3, 5, False, "budget", 5),
        (11, 9, True, "budget", 9), (11, 9, False, "budget", 9),
        (11, 10, True, "event_ii", 10), (11, 10, False, "budget", 10),
        (6, 1, True, "budget", 1), (6, 1, False, "budget", 1),
        (6, 2, True, "event_i", 2), (6, 2, False, "budget", 2),
        (88, 1, True, "event_i", 1), (88, 1, False, "budget", 1),
        (142, 1, True, "event_ii", 1), (142, 1, False, "budget", 1),
        (12, 1, True, "optimum", 0), (12, 1, False, "optimum", 0),
        (41, 1, True, "optimum", 1), (41, 1, False, "optimum", 1),
        (10, 1, True, "budget", 1), (10, 1, False, "budget", 1),
        (10, 2, True, "optimum", 2), (10, 2, False, "optimum", 2),
        (0, 1, True, "budget", 1), (0, 1, False, "budget", 1),
    ]

    @pytest.mark.parametrize("seed, budget, early_exit, kind, generation", BUDGET_EDGES)
    def test_budget_edges(self, seed, budget, early_exit, kind, generation):
        # an all-event census first seen after generation `budget` reports the
        # budget; one first seen after `budget - 1` reports the event at `budget`
        outcome = run_alg2(3, 2, budget, RandomStream(2, seed), early_exit)
        assert outcome == TrialOutcome(OutcomeKind(kind), generation)

    def test_no_early_exit_never_reports_events(self):
        # both all-slot events are absorbing: without the early exit those
        # trials run out the budget, and every other trial is unchanged
        for s in range(30):
            stopped = run_alg2(3, 2, 300, RandomStream(2, s))
            full = run_alg2(3, 2, 300, RandomStream(2, s), early_exit=False)
            if stopped.kind in (EVENT_I, EVENT_II):
                assert full == TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, 300)
            else:
                assert full == stopped

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_alg2(1, 4)
        with pytest.raises(ValueError):
            run_alg2(4, 0)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            run_alg2(6, 4, budget=0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="with one slot the population rule breaks ties by removing either "
        "pair uniformly, while the single-individual rule always accepts the "
        "offspring on ties; the resulting outcome distributions differ by far "
        "more than Monte Carlo noise (about 5 points on the event-I rate at n=6)",
    )
    def test_single_slot_population_matches_single_individual(self):
        n, trials = 6, 10_000
        counts = {OutcomeKind.OPTIMUM_FOUND: [0, 0], OutcomeKind.STAGNATED_EVENT_I: [0, 0]}
        for s in range(trials):
            one = run_alg1(n, MutationKind.BITWISE, rng=RandomStream(8, 2 * s))
            two = run_alg2(n, 1, rng=RandomStream(8, 2 * s + 1))
            for kind, pair in counts.items():
                pair[0] += one.kind == kind
                pair[1] += two.kind == kind
        for kind, (c1, c2) in counts.items():
            p = (c1 + c2) / (2 * trials)
            sigma = math.sqrt(2 * p * (1 - p) / trials)
            assert abs(c1 - c2) / trials <= 3 * sigma, f"{kind}: {c1} vs {c2}"


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
