"""The modified single-individual and population algorithms.

Selection always compares the candidate pair (parent's current first bit,
offspring) against the incumbent with >=, so ties accept the offspring in the
single-individual algorithm, while the population algorithm
(``Population.evolve``) removes one uniformly chosen lowest-fitness pair
among the mu+1 candidates with no secondary tie-break.

Each algorithm is one generation loop that yields only when something its
stopping rule reads may have changed.  ``alg1_moves`` picks the mutation
operator once per run and yields the accepted states, the only ones whose
class can change; ``Population.evolve`` keeps the population in locals and
yields after the generations that change its census.  ``run_alg1``,
``run_alg2`` and acceptance criterion 7 drive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterator, Sequence

from .core import RandomStream, mutate_value_bitwise, mutate_value_one_bit
from .fitness import (
    OPTIMUM_FOUND,
    STAGNATED_EVENT_I,
    STAGNATED_EVENT_II,
    OutcomeKind,
    accepts,
    classify,
    fitness,
)


class MutationKind(Enum):
    ONE_BIT = "one_bit"  # randomized local search
    BITWISE = "bitwise"  # standard 1/n per-bit flips


@dataclass(slots=True)
class TrialOutcome:
    """Terminal classification of one run."""

    kind: OutcomeKind
    generation: int


def default_budget_alg1(n: int) -> int:
    """100 n^2: an order of magnitude above the expected hitting scale."""
    return 100 * n * n


def default_budget_alg2(n: int, mu: int) -> int:
    return 100 * mu * n


_MUTATE = {MutationKind.ONE_BIT: mutate_value_one_bit, MutationKind.BITWISE: mutate_value_bitwise}


def alg1_moves(
    b: int, value: int, n: int, kind: MutationKind, rng: RandomStream, generations: int
) -> Iterator[tuple[int, int, int, int]]:
    """Run ``generations`` generations of alg1 from the state ``(b, value)``.

    Each generation pairs the current first bit with the offspring and takes
    the candidate under ``accepts``.  After each accepted generation g
    (counted from 1) the generator yields ``(g, b, value, ones)``; a
    rejection leaves the state unchanged and yields nothing.
    """
    mutate = _MUTATE[kind]
    ones = value.bit_count()
    for g in range(1, generations + 1):
        off_value, off_ones = mutate(value, ones, n, rng)
        first = value & 1
        if accepts(b, ones, first, off_ones, n):
            b, value, ones = first, off_value, off_ones
            yield g, b, value, ones


def run_alg1(
    n: int,
    mutation_kind: MutationKind,
    budget: int | None = None,
    rng: RandomStream | None = None,
    early_exit: bool = True,
) -> TrialOutcome:
    """Run until the optimum, a detected stagnation event, or the budget.

    One test reads the class of the initial state, then of each accepted
    move.  Stagnation events are absorbing, so with ``early_exit`` the run
    stops the first generation an event holds; disabling it runs out the
    budget, as ``--no-early-exit`` and the two ``test_no_early_exit_*`` tests
    do.  Generation 1 is the initial state, so the budget allows
    ``budget - 1`` mutation steps.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if mutation_kind not in _MUTATE:
        raise ValueError(f"mutation kind must be a MutationKind, got {mutation_kind!r}")
    if rng is None:
        rng = RandomStream(0)
    if budget is None:
        budget = default_budget_alg1(n)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    b = rng.random_bits(n) & 1  # only the first bit of x^0 is stored
    value = rng.random_bits(n)
    moves = alg1_moves(b, value, n, mutation_kind, rng, budget - 1)
    for g, b, value, ones in chain(((0, b, value, value.bit_count()),), moves):
        kind = classify(b, value & 1, ones, n)
        if kind is OPTIMUM_FOUND or (early_exit and kind is not None):
            return TrialOutcome(kind, g + 1)
    return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)


class Population:
    """Ordered multiset of mu ``(b, value)`` slots with an incremental census.

    ``evolve`` runs generations of the population algorithm in place.  Each
    slot is classified once, when it enters; the counts of slots in each
    stagnation event, the ``optimum_generated`` flag and the slots of each
    fitness value (its bucket) are maintained on every replacement, so the
    minimum fitness, the stagnation checks, and uniform removal among the
    lowest-fitness pairs are all O(1) per generation.
    """

    def __init__(self, n: int, slots: Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if not slots:
            raise ValueError("population must have at least one slot")
        for b, value in slots:
            if b not in (0, 1):
                raise ValueError(f"stored first bit must be 0 or 1, got {b}")
            if value < 0 or value >> n:
                raise ValueError(f"value {value} does not fit in {n} bits")
        self.n = n
        self.mu = len(slots)
        self._prev = [b for b, _ in slots]
        self._value = [value for _, value in slots]
        self._ones = [value.bit_count() for value in self._value]
        # each slot is classified once, as it enters
        kinds = self._kind = [classify(b, value & 1, ones, n) for b, value, ones in self.pairs()]
        self.event_i_count = kinds.count(STAGNATED_EVENT_I)
        self.event_ii_count = kinds.count(STAGNATED_EVENT_II)
        self.optimum_generated = OPTIMUM_FOUND in kinds
        self._buckets: dict[int, list[int]] = {}
        for i, (b, ones) in enumerate(zip(self._prev, self._ones)):
            self._buckets.setdefault(fitness(b, ones, n), []).append(i)

    @classmethod
    def random(cls, n: int, mu: int, rng: RandomStream) -> "Population":
        """mu slots, each from two uniform strings x^0 then x^1 (x^0 keeps its first bit)."""
        slots = []
        for _ in range(mu):
            b = rng.random_bits(n) & 1
            slots.append((b, rng.random_bits(n)))
        return cls(n, slots)

    def evolve(self, rng: RandomStream, generations: int) -> Iterator[int]:
        """Run ``generations`` generations in place; yield g after each that changes the census.

        A generation is a uniform parent, a bitwise offspring paired with the
        parent's current first bit, and uniform removal of a lowest-fitness
        pair among the mu+1.  A new slot is classified from its class: the
        parent's first bit, the offspring's first bit and ones-count.  The
        census (``event_i_count``, ``event_ii_count``, ``optimum_generated``)
        is current at every yield and when the generator stops.  The optimum,
        of maximum fitness n, leaves only when every slot is the optimum, and
        no offspring then reaches n, so ``optimum_generated`` is never cleared.
        """
        n, mu = self.n, self.mu
        prevs, values, ones_of, kinds, buckets = (
            self._prev, self._value, self._ones, self._kind, self._buckets)
        ei, eii, opt = self.event_i_count, self.event_ii_count, self.optimum_generated
        low_fit = min(buckets)
        bucket = buckets[low_fit]
        next_index = rng.next_index
        for g in range(1, generations + 1):
            parent = next_index(mu)
            value = values[parent]
            prev = value & 1
            value, ones = mutate_value_bitwise(value, ones_of[parent], n, rng)
            fit = ones - n if prev else ones  # fitness(prev, ones, n) without the call
            if fit < low_fit:
                continue
            low = len(bucket)
            k = low + (fit == low_fit)
            r = next_index(k) if k > 1 else 0
            if r == low:
                continue  # the offspring itself was the removed lowest pair
            i = bucket[r]
            bucket[r] = bucket[-1]  # swap-remove: the last slot of the bucket takes position r
            bucket.pop()
            prevs[i], values[i], ones_of[i] = prev, value, ones
            try:
                buckets[fit].append(i)
            except KeyError:
                buckets[fit] = [i]
            if not bucket:
                del buckets[low_fit]
                while low_fit not in buckets:
                    low_fit += 1
                bucket = buckets[low_fit]
            kind = classify(prev, value & 1, ones, n)
            old, kinds[i] = kinds[i], kind
            if kind is old or (opt and old is None and kind is OPTIMUM_FOUND):
                continue  # no count moves: the same class, or one more optimum
            opt = opt or kind is OPTIMUM_FOUND
            ei += (kind is STAGNATED_EVENT_I) - (old is STAGNATED_EVENT_I)
            eii += (kind is STAGNATED_EVENT_II) - (old is STAGNATED_EVENT_II)
            self.event_i_count, self.event_ii_count, self.optimum_generated = ei, eii, opt
            yield g

    # -- views ---------------------------------------------------------------

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """The slots as raw ``(b, value, ones)`` states, in slot order."""
        return zip(self._prev, self._value, self._ones)


FirstBitPattern = tuple[int, int]


@dataclass
class CensusReport:
    """Pattern counts plus the front structure over (0,0)-pattern slots.

    ``front_defined`` is False when no (0,0)-pattern slot exists; the
    front-relative fields are then None rather than zero, since the front
    fitness l is undefined in that case.
    """

    pattern_counts: dict[FirstBitPattern, int]
    front_defined: bool
    best_00_fitness: int | None = None
    front_zeros: int | None = None
    m_histogram: dict[int, int] = field(default_factory=dict)
    undefeated_count: int | None = None
    front_count: int | None = None
    interior_count: int | None = None


def population_census(pop: Population) -> CensusReport:
    """Full O(mu) scan: pattern counts, front fitness l, and the m_d histogram.

    m_d counts (0,0)-pattern slots whose zero-count exceeds the front's
    zero-count a by d.  Slots are also partitioned into temporarily
    undefeated ((0,1) pattern, fitness > l), current front ((0,0) pattern,
    fitness = l), and interior (everything else).
    """
    counts: dict[FirstBitPattern, int] = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    n = pop.n
    slots = [((b, value & 1), fitness(b, ones, n)) for b, value, ones in pop.pairs()]
    best_00 = None
    for pat, fit in slots:
        counts[pat] += 1
        if pat == (0, 0) and (best_00 is None or fit > best_00):
            best_00 = fit
    if best_00 is None:
        return CensusReport(pattern_counts=counts, front_defined=False)

    a = n - best_00  # (0,0)-pattern fitness is the ones-count
    m_hist: dict[int, int] = {}
    undefeated = front = 0
    for pat, fit in slots:
        if pat == (0, 0):
            d = (n - fit) - a
            m_hist[d] = m_hist.get(d, 0) + 1
            if fit == best_00:
                front += 1
        elif pat == (0, 1) and fit > best_00:
            undefeated += 1
    return CensusReport(
        pattern_counts=counts,
        front_defined=True,
        best_00_fitness=best_00,
        front_zeros=a,
        m_histogram=m_hist,
        undefeated_count=undefeated,
        front_count=front,
        interior_count=pop.mu - undefeated - front,
    )


def run_alg2(
    n: int,
    mu: int,
    budget: int | None = None,
    rng: RandomStream | None = None,
    early_exit: bool = True,
) -> TrialOutcome:
    """Population run; the optimum fires on the offspring pair at creation.

    With ``early_exit`` the run stops at the population analogues of the two
    stagnation events: every slot in event I (I'), or every slot in event II
    (II').  The events are read before each generation, so a census reached
    after generation g reports g + 1, and one reached after the last
    generation reports an exhausted budget.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if rng is None:
        rng = RandomStream(0)
    if budget is None:
        budget = default_budget_alg2(n, mu)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    pop = Population.random(n, mu, rng)
    for g in chain((0,), pop.evolve(rng, budget)):  # the initial census, then each change
        if pop.optimum_generated:
            return TrialOutcome(OPTIMUM_FOUND, g)
        if early_exit and g < budget and mu in (pop.event_i_count, pop.event_ii_count):
            # the events are read at the top of the next generation
            kind = STAGNATED_EVENT_I if pop.event_i_count == mu else STAGNATED_EVENT_II
            return TrialOutcome(kind, g + 1)
    return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)
