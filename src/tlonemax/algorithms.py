"""The modified single-individual and population algorithms.

Selection always compares the candidate pair (parent's current first bit,
offspring) against the incumbent with >=, so ties accept the offspring in the
single-individual algorithm, while the population algorithm removes one
uniformly chosen lowest-fitness pair among the mu+1 candidates with no
secondary tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .core import RandomStream, mutate_value_bitwise, mutate_value_one_bit
from .detection import event_I_prime, event_II_prime
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


_ONE_BIT = MutationKind.ONE_BIT  # a module alias is cheaper to read per step than the member


@dataclass(slots=True)
class TrialOutcome:
    """Terminal classification of one run."""

    kind: OutcomeKind
    generation: int

    @property
    def failed(self) -> bool:
        return self.kind in (OutcomeKind.STAGNATED_EVENT_I, OutcomeKind.STAGNATED_EVENT_II)


def default_budget_alg1(n: int) -> int:
    """100 n^2: an order of magnitude above the expected hitting scale."""
    return 100 * n * n


def default_budget_alg2(n: int, mu: int) -> int:
    return 100 * mu * n


def alg1_step(
    b: int, value: int, ones: int, n: int, kind: MutationKind, rng: RandomStream
) -> tuple[int, int, int] | None:
    """One mutation/selection step from the state ``(b, value, ones)``.

    The candidate pairs the current first bit with the offspring and is
    taken under ``accepts``.  Returns the accepted ``(b, value, ones)`` or
    None when the offspring is rejected.
    """
    if kind is _ONE_BIT:
        off_value, off_ones = mutate_value_one_bit(value, ones, n, rng)
    else:
        off_value, off_ones = mutate_value_bitwise(value, ones, n, rng)
    first = value & 1
    if accepts(b, ones, first, off_ones, n):
        return first, off_value, off_ones
    return None


def run_alg1(
    n: int,
    mutation_kind: MutationKind,
    budget: int | None = None,
    rng: RandomStream | None = None,
    early_exit: bool = True,
) -> TrialOutcome:
    """Run until the optimum, a detected stagnation event, or the budget.

    Stagnation events are absorbing, so with ``early_exit`` the run stops the
    first generation an event holds; disabling it runs out the budget, which
    the absorption-persistence tests rely on.
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
    ones = value.bit_count()
    kind = classify(b, value, n)
    g = 1
    while True:
        if kind is OPTIMUM_FOUND or (early_exit and kind is not None):
            return TrialOutcome(kind, g)
        if g >= budget:
            return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)
        step = alg1_step(b, value, ones, n, mutation_kind, rng)
        if step is not None:  # a rejection leaves the state and its class unchanged
            b, value, ones = step
            kind = classify(b, value, n)
        g += 1


class Population:
    """Ordered multiset of mu ``(b, value)`` slots with an incremental census.

    The counts of slots in each stagnation event and the slots of each
    fitness value (its bucket) are maintained on every replacement, so the
    minimum fitness, the stagnation checks, and uniform removal among the
    lowest-fitness pairs are all O(1) per generation.  ``validate()``
    re-derives everything by a full scan and asserts agreement.
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

        self.event_i_count = 0
        self.event_ii_count = 0
        self._buckets: dict[int, list[int]] = {}
        for i in range(self.mu):
            self._register(i)
        self.min_fitness = min(self._buckets)
        self.optimum_generated = any(
            classify(b, v, n) is OPTIMUM_FOUND
            for b, v in zip(self._prev, self._value)
        )

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
        kind = classify(self._prev[i], self._value[i], self.n)
        self.event_i_count += kind is STAGNATED_EVENT_I
        self.event_ii_count += kind is STAGNATED_EVENT_II
        fit = fitness(self._prev[i], self._ones[i], self.n)
        self._buckets.setdefault(fit, []).append(i)

    def replace_lowest(self, r: int, prev: int, value: int, ones: int) -> None:
        """Overwrite the slot at position r of the lowest-fitness bucket."""
        bucket = self._buckets[self.min_fitness]
        i = bucket[r]
        last = bucket.pop()  # swap-remove: the last slot of the bucket takes position r
        if r < len(bucket):
            bucket[r] = last
        kind = classify(self._prev[i], self._value[i], self.n)
        self.event_i_count -= kind is STAGNATED_EVENT_I
        self.event_ii_count -= kind is STAGNATED_EVENT_II
        self._prev[i] = prev
        self._value[i] = value
        self._ones[i] = ones
        self._register(i)
        if not bucket:
            del self._buckets[self.min_fitness]
            m = self.min_fitness
            while m not in self._buckets:
                m += 1
            self.min_fitness = m

    # -- views ---------------------------------------------------------------

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """The slots as raw ``(b, value, ones)`` states, in slot order."""
        return zip(self._prev, self._value, self._ones)

    def validate(self) -> None:
        """Debug oracle: full rescan must agree with the incremental census."""
        ei = eii = 0
        for i in range(self.mu):
            assert self._ones[i] == self._value[i].bit_count()
            kind = classify(self._prev[i], self._value[i], self.n)
            ei += kind is STAGNATED_EVENT_I
            eii += kind is STAGNATED_EVENT_II
        assert ei == self.event_i_count and eii == self.event_ii_count
        # every slot sits exactly once, in the bucket of its fitness
        assert sorted(i for bucket in self._buckets.values() for i in bucket) == list(range(self.mu))
        for fit, bucket in self._buckets.items():
            assert bucket
            for i in bucket:
                assert fitness(self._prev[i], self._ones[i], self.n) == fit
        assert self.min_fitness == min(self._buckets)


def alg2_step(pop: Population, rng: RandomStream) -> Population:
    """One generation: uniform parent, bitwise offspring, >=-min acceptance,
    then uniform removal among the lowest-fitness pairs of the mu+1.

    Mutates ``pop`` in place (and returns it); a trial owns its population.
    """
    n = pop.n
    i = rng.next_index(pop.mu)
    off_value, off_ones = mutate_value_bitwise(pop._value[i], pop._ones[i], n, rng)
    parent_first = pop._value[i] & 1
    off_fit = fitness(parent_first, off_ones, n)
    if off_fit >= pop.min_fitness:  # always true for the optimum, the fitness maximum
        if classify(parent_first, off_value, n) is OPTIMUM_FOUND:
            pop.optimum_generated = True
        low = len(pop._buckets[pop.min_fitness])
        k = low + (1 if off_fit == pop.min_fitness else 0)
        r = rng.next_index(k) if k > 1 else 0
        if r < low:
            pop.replace_lowest(r, parent_first, off_value, off_ones)
        # otherwise the offspring itself was the removed lowest pair
    return pop


def run_alg2(
    n: int,
    mu: int,
    budget: int | None = None,
    rng: RandomStream | None = None,
    early_exit: bool = True,
) -> TrialOutcome:
    """Population run; the optimum fires on the offspring pair at creation."""
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
            if event_I_prime(pop):
                return TrialOutcome(STAGNATED_EVENT_I, g)
            if event_II_prime(pop):
                return TrialOutcome(STAGNATED_EVENT_II, g)
        alg2_step(pop, rng)
        if pop.optimum_generated:
            return TrialOutcome(OPTIMUM_FOUND, g)
    return TrialOutcome(OutcomeKind.BUDGET_EXHAUSTED, budget)


@dataclass(slots=True)
class OnlineRecord:
    """The accepted state ``(b, value, ones)`` at ``time_step`` and its online objective."""

    time_step: int
    b: int
    value: int
    ones: int
    objective: float


def run_online(
    n: int,
    mutation_kind: MutationKind,
    time_horizon: int,
    budget_per_step: int,
    rng: RandomStream | None = None,
) -> list[OnlineRecord]:
    """Online driver: the fitness time step advances only on acceptance.

    Each accepted offspring becomes the decision for the next time step; the
    discounted residual is carried incrementally.  Stops at the horizon, when
    the two-step component reaches its maximum n, or when ``budget_per_step``
    generations pass without an acceptance.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if time_horizon < 1 or budget_per_step < 1:
        raise ValueError("horizons must be >= 1")
    if rng is None:
        rng = RandomStream(0)

    b = rng.random_bits(n) & 1
    value = rng.random_bits(n)
    ones = value.bit_count()
    residual = 0.0
    t = 1
    records: list[OnlineRecord] = []
    while t < time_horizon:
        for _ in range(budget_per_step):
            step = alg1_step(b, value, ones, n, mutation_kind, rng)
            if step is not None:
                break
        else:
            break
        residual = (residual + b) / math.e
        b, value, ones = step
        t += 1
        records.append(OnlineRecord(t, b, value, ones, residual + fitness(b, ones, n)))
        if classify(b, value, n) is OPTIMUM_FOUND:
            break
    return records
