"""Population stagnation detectors and the population census.

Two absorbing stagnation events exist for the single-individual algorithms
(see :func:`tlonemax.fitness.classify`): the stored/current first-bit
pattern (0,1) with the remaining positions not all ones, and the stored-1 /
current-all-ones state.  The population algorithm stagnates only when one
of these holds for every slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .fitness import fitness

if TYPE_CHECKING:  # pragma: no cover
    from .algorithms import Population

FirstBitPattern = tuple[int, int]


def event_I_prime(pop: "Population") -> bool:
    """Every slot is in event I; answered in O(1) from the census."""
    return pop.event_i_count == pop.mu


def event_II_prime(pop: "Population") -> bool:
    """Every slot is in event II; answered in O(1) from the census."""
    return pop.event_ii_count == pop.mu


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


def population_census(pop: "Population") -> CensusReport:
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
