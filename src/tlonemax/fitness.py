"""The time-linkage objective and its absorbing states, on the raw state.

Every algorithm works on one state, held as three integers: the stored
previous first bit ``b``, the current string ``value`` (bit i of the integer
is position i+1 of the string) and its ones-count ``ones``.  The objective
scores it by ``ones - n*b``, so the unique maximum n is the all-ones string
with stored first bit 0.  This module is the only one that knows that
formula and the predicates of the optimum and the two stagnation events.
"""

from __future__ import annotations

from enum import Enum


class OutcomeKind(str, Enum):
    OPTIMUM_FOUND = "optimum"
    STAGNATED_EVENT_I = "event_i"
    STAGNATED_EVENT_II = "event_ii"
    BUDGET_EXHAUSTED = "budget"


# Reading an Enum member off its class costs about 0.1 us on Python 3.11;
# the per-generation code compares against these module-level aliases.
OPTIMUM_FOUND = OutcomeKind.OPTIMUM_FOUND
STAGNATED_EVENT_I = OutcomeKind.STAGNATED_EVENT_I
STAGNATED_EVENT_II = OutcomeKind.STAGNATED_EVENT_II


def fitness(b: int, ones: int, n: int) -> int:
    """Ones-count of the current string minus n times the stored first bit.

    Exact integer in [-n, n]; selection compares these values, so no floats.
    Also applies elementwise to integer numpy arrays.
    """
    return ones - n * b


def accepts(b, ones, first, off_ones, n):
    """Whether the candidate (first, off_ones) replaces the incumbent (b, ones).

    The candidate pairs the incumbent's current first bit with the offspring;
    it is taken when its fitness is at least the incumbent's, so ties accept
    and the fitness never decreases.  Applies to ints and, elementwise with
    broadcasting, to integer numpy arrays.
    """
    return off_ones - n * first >= ones - n * b


def classify(b: int, value: int, n: int) -> OutcomeKind | None:
    """Which absorbing state ``(b, value)`` is in, if any.

    - ``OPTIMUM_FOUND``: stored bit 0 and the all-ones string;
    - ``STAGNATED_EVENT_I`` (event I): stored bit 0, current first bit 1, and
      positions 2..n not all ones;
    - ``STAGNATED_EVENT_II`` (event II): stored bit 1 and the all-ones string;
    - ``None`` for every other state.
    """
    if value == (1 << n) - 1:
        return STAGNATED_EVENT_II if b else OPTIMUM_FOUND
    if b == 0 and value & 1:
        return STAGNATED_EVENT_I
    return None

