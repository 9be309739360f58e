"""The modified single-individual and population algorithms.

Selection always compares the candidate pair (parent's current first bit,
offspring) against the incumbent with >=, so ties accept the offspring in the
single-individual algorithm, while the population algorithm
(``Population.step``) removes one uniformly chosen lowest-fitness pair among
the mu+1 candidates with no secondary tie-break.

The single-individual algorithm is one generation loop, ``alg1_moves``: it
picks the mutation operator once per run and yields only the accepted
states, which are the only ones whose class can change.  ``run_alg1`` and
acceptance criterion 7 both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


def alg1_moves(
    b: int, value: int, n: int, kind: MutationKind, rng: RandomStream, generations: int
) -> Iterator[tuple[int, int, int, int]]:
    """Run ``generations`` generations of alg1 from the state ``(b, value)``.

    Each generation pairs the current first bit with the offspring and takes
    the candidate under ``accepts``.  After each accepted generation g
    (counted from 1) the generator yields ``(g, b, value, ones)``; a
    rejection leaves the state unchanged and yields nothing.
    """
    mutate = mutate_value_one_bit if kind is MutationKind.ONE_BIT else mutate_value_bitwise
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

    Stagnation events are absorbing, so with ``early_exit`` the run stops the
    first generation an event holds; disabling it runs out the budget, as
    ``--no-early-exit`` and the ``test_no_early_exit_never_reports_events``
    tests of both algorithms do.  Generation 1 is the initial state, so the
    budget allows ``budget - 1`` mutation steps.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if rng is None:
        rng = RandomStream(0)
    if budget is None:
        budget = default_budget_alg1(n)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    b = rng.random_bits(n) & 1  # only the first bit of x^0 is stored
    value = rng.random_bits(n)
    kind = classify(b, value, n)
    g = 0  # mutation steps taken
    if kind is not OPTIMUM_FOUND and not (early_exit and kind is not None):
        for g, b, value, _ in alg1_moves(b, value, n, mutation_kind, rng, budget - 1):
            kind = classify(b, value, n)
            if kind is OPTIMUM_FOUND or (early_exit and kind is not None):
                break
        else:
            return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)
    return TrialOutcome(kind, g + 1)


class Population:
    """Ordered multiset of mu ``(b, value)`` slots with an incremental census.

    ``step`` runs one generation of the population algorithm in place.  Each
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
        self._kind: list[OutcomeKind | None] = [None] * self.mu

        self.event_i_count = 0
        self.event_ii_count = 0
        self.optimum_generated = False
        self._buckets: dict[int, list[int]] = {}
        for i in range(self.mu):
            self._register(i)
        self.min_fitness = min(self._buckets)

    @classmethod
    def random(cls, n: int, mu: int, rng: RandomStream) -> "Population":
        """mu slots, each from two uniform strings x^0 then x^1 (x^0 keeps its first bit)."""
        slots = []
        for _ in range(mu):
            b = rng.random_bits(n) & 1
            slots.append((b, rng.random_bits(n)))
        return cls(n, slots)

    # -- census bookkeeping -------------------------------------------------

    def _register(self, i: int) -> None:
        """Classify the slot entering position i and add it to the census; the
        optimum, of maximum fitness n, leaves only when every slot is the
        optimum, so ``optimum_generated`` is never cleared."""
        kind = self._kind[i] = classify(self._prev[i], self._value[i], self.n)
        self.event_i_count += kind is STAGNATED_EVENT_I
        self.event_ii_count += kind is STAGNATED_EVENT_II
        self.optimum_generated |= kind is OPTIMUM_FOUND
        fit = fitness(self._prev[i], self._ones[i], self.n)
        self._buckets.setdefault(fit, []).append(i)

    def step(self, rng: RandomStream) -> None:
        """One generation: uniform parent, bitwise offspring, >=-min acceptance,
        then uniform removal among the lowest-fitness pairs of the mu+1."""
        n = self.n
        parent = rng.next_index(self.mu)
        value, ones = mutate_value_bitwise(self._value[parent], self._ones[parent], n, rng)
        prev = self._value[parent] & 1
        fit = fitness(prev, ones, n)
        low_fit = self.min_fitness
        if fit < low_fit:
            return
        bucket = self._buckets[low_fit]
        low = len(bucket)
        k = low + (fit == low_fit)
        r = rng.next_index(k) if k > 1 else 0
        if r == low:
            return  # the offspring itself was the removed lowest pair
        i = bucket[r]
        bucket[r] = bucket[-1]  # swap-remove: the last slot of the bucket takes position r
        bucket.pop()
        kind = self._kind[i]
        self.event_i_count -= kind is STAGNATED_EVENT_I
        self.event_ii_count -= kind is STAGNATED_EVENT_II
        self._prev[i] = prev
        self._value[i] = value
        self._ones[i] = ones
        self._register(i)
        if not bucket:
            del self._buckets[low_fit]
            while low_fit not in self._buckets:
                low_fit += 1
            self.min_fitness = low_fit

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
    (II').
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
    if pop.optimum_generated:
        return TrialOutcome(OPTIMUM_FOUND, 0)
    for g in range(1, budget + 1):
        if early_exit:
            if pop.event_i_count == mu:
                return TrialOutcome(STAGNATED_EVENT_I, g)
            if pop.event_ii_count == mu:
                return TrialOutcome(STAGNATED_EVENT_II, g)
        pop.step(rng)
        if pop.optimum_generated:
            return TrialOutcome(OPTIMUM_FOUND, g)
    return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)

