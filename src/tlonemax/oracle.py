"""Exact and closed-form mathematics backing the simulations.

Contains the conditional single-step-gain probability (closed form plus an
independent brute-force enumeration), two Chernoff tail-bound evaluators,
the monotone helper functions, the probability bounds of the main results,
and exact Markov absorption solvers for the single-individual algorithm, both
over the full 2^(n+1)-state chain and over its symmetry-lumped 4n-state
reduction, which ``tlonemax markov`` prints (the full chain is its reference
for n <= 10).  The full chain's kernels look up one weight per Hamming
distance.  ``_lumped_kernel`` alone builds the lumped kernel; for bitwise
mutation it convolves slices of one table of binomial pmfs, one row per
ones-count, built from the ratio of consecutive binomial coefficients.  The
table stops at 24 flips, a band that drops less than 2/25! of each kernel
row (nothing for n <= 25).  That mass stays in place, so the lumped bitwise
probabilities are those of a stochastic chain within 2/25! per row of the
exact one, and sum to 1 up to rounding.  Both chains go through one
builder, which takes each string class as its first bit and ones-count and
the kernel as banded rows: each row is one run of classes from its own
offset on.  The lumped chain orders its classes (k, x1) at index 2k + x1,
so a row is a run of at most 98 classes (6 for one-bit mutation) and no
(2n)^2 kernel is built; the full chain's band is as wide as the chain.
Selection never lowers the fitness, so the builder solves by
back-substitution over blocks of consecutive whole fitness levels, from the
highest down, with one linear solve per block (of about the square root of
the number of transient states) over the run of classes its rows reach, and
no dense transition matrix.
``scipy.special`` is imported only inside the log-space helpers, so
importing this module or solving either chain loads no scipy.

Theorems 2 and 3 read two of their tail terms through the evaluators:
``chernoff_lower`` gives the (mu + 2) e^(-n/8) term and
``chernoff_geometric`` the delta term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algorithms import MutationKind
from .fitness import OutcomeKind, accepts, classify, fitness

_E = math.e

# n and mu enter float arithmetic (n^(1/3), (mu + 2) e^(-n/8), the budget
# 100 mu n budget_mult); a float holds every integer only up to 2**53, and far
# beyond it the conversion overflows
SIZE_LIMIT = 2**53


# ---------------------------------------------------------------------------
# Conditional improvement probability
# ---------------------------------------------------------------------------

def lemma2_exact(n: int, a: int) -> Fraction:
    """P[gain = 1 | gain > 0] for bitwise mutation of a string with a zeros.

    Closed-form ratio of the two combinatorial sums, evaluated in exact
    rational arithmetic (every term shares the denominator n^n, so both sums
    reduce to integer accumulation).  A term flips i zeros and j ones, so
    its weight is (n-1)^(n-i-j).  For i zeros the ones-flips run over
    j < m = min(i, n-a+1), and with q = n-1 their sum is
    q^(n-i-m+1) * T_m, where T_m = sum_{j<m} C(n-a, j) q^(m-1-j) follows
    Horner's rule, T_{m+1} = q T_m + C(n-a, m); m stops growing once
    i > n-a+1, and so does T_m.  C(a, i) and C(n-a, i-1) follow from
    their predecessors by one product and one exact division each, so each
    i costs O(1) big-integer products, O(a) per call.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= a <= n:
        raise ValueError(f"a must be in [1..n], got a={a}")
    q = n - 1
    power = [1]
    for _ in range(n):
        power.append(power[-1] * q)
    num = 0  # terms for exactly one net new one
    den = 0  # terms for any positive gain
    inner = 0  # T_m
    ca = 1  # C(a, i)
    t = 1  # C(n-a, i-1)
    for i in range(1, a + 1):
        ca = ca * (a - i + 1) // i
        m = min(i, n - a + 1)
        if m == i:
            inner = inner * q + t
            num += ca * t * power[n - 2 * i + 1]
            t = t * (n - a - i + 1) // i
        den += ca * inner * power[n - i - m + 1]
    return Fraction(num, den)


def lemma2_bruteforce(n: int, a: int) -> Fraction:
    """Same conditional probability by enumerating all 2^n flip masks.

    Independent verification path: fixes one string with a zeros (symmetry
    makes the choice irrelevant), weights each mask by its exact flip
    probability, and accumulates the two event masses directly.
    """
    if n > 14:
        raise ValueError(f"brute force limited to n <= 14, got {n}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= a <= n:
        raise ValueError(f"a must be in [1..n], got a={a}")
    x = ((1 << n) - 1) ^ ((1 << a) - 1)  # zeros in the low a positions
    ones_x = n - a
    weights = [(n - 1) ** (n - f) for f in range(n + 1)]  # numerators over n^n
    num_eq1 = 0
    num_pos = 0
    for mask in range(1 << n):
        gain = (x ^ mask).bit_count() - ones_x
        if gain > 0:
            w = weights[mask.bit_count()]
            num_pos += w
            if gain == 1:
                num_eq1 += w
    return Fraction(num_eq1, num_pos)


def lemma2_lower_bound(n: int, a: int) -> float:
    """The proven lower bound 1 - e*a/n."""
    return 1.0 - _E * a / n


# ---------------------------------------------------------------------------
# Tail bound evaluators
# ---------------------------------------------------------------------------

def chernoff_lower(expectation: float, delta: float) -> float:
    """exp(-delta^2 E / 2) for [0,1]-valued summands, delta in [0,1].

    Bounds P[X <= (1 - delta) E] for a sum X of independent summands with
    expectation E.  At E = n and delta = 1/2 it is the e^(-n/8) that
    Theorems 2 and 3 charge mu + 2 times.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0,1], got {delta}")
    if expectation < 0:
        raise ValueError("expectation must be non-negative")
    return math.exp(-delta * delta * expectation / 2.0)


def chernoff_geometric(m: int, delta: float) -> float:
    """exp(-delta^2 (m - 1) / (2 (1 + delta))), delta >= 0.

    Bounds the upper tail of a sum of m independent geometric variables, at
    (1 + delta) times its expectation.  At m = n it is the delta term of
    Theorems 2 and 3.  The exponent is halved before it is divided by
    1 + delta, so a delta near the float maximum gives 0, not inf/inf.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return math.exp(-delta * delta * (m - 1) / 2.0 / (1.0 + delta))


# ---------------------------------------------------------------------------
# Monotone helper functions
# ---------------------------------------------------------------------------

def h1_log(a: int | np.ndarray, n: int, d: np.ndarray) -> np.ndarray:
    """log of h1 = C(a+d-1, d) / n^(d+1), strictly decreasing in d on [0, n-a-1].

    Over an integer array of d, with one row per a for a column of a; log space avoids underflow.
    """
    from scipy.special import gammaln

    d = np.asarray(d, dtype=float)
    return gammaln(a + d) - gammaln(d + 1) - gammaln(a) - (d + 1) * math.log(n)


def h2_log(a: int | np.ndarray, n: int, d: np.ndarray) -> np.ndarray:
    """log of h2 = C(a+d-1, d-1) / n^d = h1(a+1, d-1), strictly decreasing in d on [1, n-a]."""
    return h1_log(a + 1, n, np.asarray(d) - 1)


def g_log(a, n) -> float:
    """log of g = a^a / n^(a^2), strictly decreasing in a on [1, sqrt(n)]."""
    a = np.asarray(a, dtype=float) if not np.isscalar(a) else float(a)
    return a * np.log(a) - a * a * math.log(n)


def aux_ineq(n: float) -> bool:
    """Whether (3/4)^(sqrt(n)-1) <= n^(-1/2); holds for all n > (4e)^2."""
    if n <= (4 * _E) ** 2:
        raise ValueError(f"n must exceed (4e)^2 ~ 118.22, got {n}")
    return (math.sqrt(n) - 1) * math.log(0.75) <= -0.5 * math.log(n)


# ---------------------------------------------------------------------------
# Probability bounds of the main results, unclamped: a value <= 0 is vacuous
# ---------------------------------------------------------------------------

def theorem1_bound(n: int) -> float:
    """Lower bound on the failure probability of the single-individual algorithms."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 1.0 - (n + 1) * math.exp(-n ** (1.0 / 3.0) / _E) - (_E + 1) / n ** (1.0 / 3.0)


def theorem2_bound(n: int, mu: int, delta: float) -> float:
    """Lower bound on the success probability of the population algorithm."""
    return _population_bound(n, mu, delta, 2.0)


def theorem3_bound(n: int, mu: int, delta: float) -> float:
    """Lower bound on the probability of the conditioning event for the
    O(mu*n) expected-runtime statement (same shape with a 3n correction term)."""
    return _population_bound(n, mu, delta, 3.0)


def _population_bound(n: int, mu: int, delta: float, coeff: float) -> float:
    """The form Theorems 2 and 3 share: ``coeff`` is 2 or 3 in the last term."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    return (
        1.0
        - (mu + 2) * chernoff_lower(n, 0.5)
        - chernoff_geometric(n, delta)
        - coeff * n * math.exp(-math.sqrt(n) / 20.0)
    )


def min_population(n: int, delta: float) -> int:
    """Smallest population size used with the success guarantee, 4(1+delta)(3e+1)(n+1).

    Rounded to the nearest integer (the value is within rounding noise of an
    integer for the deltas of interest).  A size above ``SIZE_LIMIT`` raises.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    size = 4.0 * (1.0 + delta) * (3.0 * _E + 1.0) * (n + 1)
    if not size <= SIZE_LIMIT:
        raise ValueError(f"population size must be at most 2**53, got {size:g} "
                         f"for n={n}, delta={delta:g}")
    return round(size)


# ---------------------------------------------------------------------------
# Markov absorption solvers
# ---------------------------------------------------------------------------

# each absorbing class's column of (p_optimum, p_event_i, p_event_ii)
_COLUMN = {OutcomeKind.OPTIMUM_FOUND: 0, OutcomeKind.STAGNATED_EVENT_I: 1,
           OutcomeKind.STAGNATED_EVENT_II: 2}


@dataclass
class AbsorptionResult:
    """Absorption probabilities per start state of the selection chain.

    An absorbing state, as ``fitness.classify`` names it, has probability 1
    in its own class's column.  ``start_weights`` is the probability of each
    state under uniform random initialization, whose stored first bit is
    uniform and independent of the string.
    """

    p_optimum: np.ndarray
    p_event_i: np.ndarray
    p_event_ii: np.ndarray
    start_weights: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return 1.0 - (self.p_optimum + self.p_event_i + self.p_event_ii)

    def from_uniform(self) -> dict[str, float]:
        w = self.start_weights
        return {
            "p_optimum": float(w @ self.p_optimum),
            "p_event_i": float(w @ self.p_event_i),
            "p_event_ii": float(w @ self.p_event_ii),
        }

    def failure_probability(self) -> float:
        u = self.from_uniform()
        return u["p_event_i"] + u["p_event_ii"]


def _selection_chain(
    n: int, first: np.ndarray, ones: np.ndarray, band: np.ndarray, offset: np.ndarray,
    class_weights: np.ndarray,
) -> AbsorptionResult:
    """Absorption probabilities of the selection chain over C string classes.

    A state is a stored first bit b and a class c, at index b*C + c.  Class c
    holds the strings with first bit ``first[c]`` and ones-count ``ones[c]``,
    and ``classify`` names each state's class from (b, first[c], ones[c]) once.
    Both arrays are read as signed integers, since ``accepts`` subtracts
    ``n * first`` from a ones-count.  The offspring law comes as banded rows:
    ``band[c, j]`` is the probability that a class-c string's offspring lies
    in class ``offset[c] + j``, so row c reaches the W classes from
    ``offset[c]`` on, its own class among them.  ``class_weights`` is the law
    of the class of a uniform random string.  From a transient state (b, c)
    the offspring class c' moves the chain to (first[c], c') when ``accepts``
    takes it; otherwise, as for mass a row lacks, it stays.

    ``accepts`` never lowers the fitness, so ordered by fitness the chain is
    block-triangular (Kemeny & Snell, *Finite Markov Chains*, 1960, §3.3),
    and so is any run of consecutive whole levels.  The transient states are
    solved one such block at a time, from the highest fitness down: a block
    closes at the first level boundary after it holds at least isqrt(T) of
    the T transient states, so there are O(sqrt(T)) solves of O(sqrt(T))
    states each where the lumped chain has 2n levels of at most 2 transient
    states.  A block works only on the run of classes its rows reach.  Its
    right-hand side reads the absorption probabilities of the states it can
    move to outside the block, which are absorbing or already solved, and its
    own states enter one solve.  A block never splits a level: a same-level
    target in a later block would read as 0.
    """
    C, W = band.shape
    first = np.asarray(first, dtype=np.int64)
    ones = np.asarray(ones, dtype=np.int64)
    classes = list(zip(first.tolist(), ones.tolist()))
    # a transient state's column is 3; its row stays 0 until its block is solved
    column = np.array([_COLUMN.get(classify(b, x1, k, n), 3)
                       for b in (0, 1) for x1, k in classes], dtype=np.int8)
    absorbed = (column[:, None] == np.arange(3)).astype(float)
    by_first = absorbed.reshape(2, C, 3)
    trans = np.flatnonzero(column == 3)
    level = fitness(trans // C, ones[trans % C], n)
    order = np.argsort(-level, kind="stable")
    # blocks of whole levels, each closed once it holds isqrt(T) states
    least = math.isqrt(len(trans))
    cuts = [0]
    for edge in np.flatnonzero(np.diff(level[order])) + 1:
        if edge - cuts[-1] >= least:
            cuts.append(edge)
    for states in np.split(trans[order], cuts[1:]):
        b, c = np.divmod(states, C)
        x1 = first[c, None]
        # the run of classes [lo, hi) that the block's rows reach
        lo, hi = offset[c].min(), offset[c].max() + W
        rows = np.zeros((len(states), hi - lo))
        windows = sliding_window_view(rows, W, axis=1, writeable=True)
        windows[np.arange(len(states)), offset[c] - lo] = band[c]
        accept = accepts(b[:, None], ones[c, None], x1, ones[lo:hi], n)
        moves = np.where(accept, rows, 0.0)
        rhs = np.where(x1 == 1, moves @ by_first[1, lo:hi], moves @ by_first[0, lo:hi])
        # I - Q: minus the moves within the block, and on the diagonal the mass
        # that leaves each state, summed from the moves (1 - stay cancels digits)
        A = -moves[:, c - lo] * (x1 == b)
        A.flat[:: len(states) + 1] += moves.sum(axis=1)
        absorbed[states] = np.linalg.solve(A, rhs)
    p_opt, p_i, p_ii = absorbed.T
    return AbsorptionResult(
        p_optimum=p_opt,
        p_event_i=p_i,
        p_event_ii=p_ii,
        start_weights=np.tile(class_weights, 2) / 2,
    )


def markov_full_absorption(n: int, mutation_kind: MutationKind | str) -> AbsorptionResult:
    """Exact chain over all 2^(n+1) states (stored first bit, current string).

    Every string can reach every other, so the kernel is one band as wide as
    the chain, with every offset 0.
    """
    if not 2 <= n <= 10:
        raise ValueError(f"full chain limited to 2 <= n <= 10, got {n}")
    size = 1 << n
    # w[h]: probability of mutating into one given string at Hamming distance h
    if MutationKind(mutation_kind) is MutationKind.BITWISE:
        p = 1.0 / n
        h = np.arange(n + 1)
        w = p**h * (1 - p) ** (n - h)
    else:
        w = np.zeros(n + 1)
        w[1] = 1.0 / n
    xs = np.arange(size, dtype=np.uint16)
    ones = np.array([x.bit_count() for x in range(size)], dtype=np.uint8)
    M = w[ones[np.bitwise_xor.outer(xs, xs)]]
    return _selection_chain(
        n, xs & 1, ones, M, np.zeros(size, dtype=int), np.full(size, 1.0 / size)
    )


def markov_lumped_absorption(n: int, mutation_kind: MutationKind | str) -> AbsorptionResult:
    """The symmetry-lumped chain over 4n states, the one ``tlonemax markov`` prints."""
    if not 2 <= n <= 1000:
        raise ValueError(f"lumped chain limited to 2 <= n <= 1000, got {n}")
    return _selection_chain(n, *_lumped_kernel(n, mutation_kind))


def _lumped_kernel(n: int, mutation_kind: MutationKind | str) -> tuple[np.ndarray, ...]:
    """The lumped chain's ``(first, ones, band, offset, class_weights)``, unguarded in n.

    Positions 2..n are exchangeable under both the fitness and the mutation
    operators, so a string's class is its first bit x1 and the ones-count k
    of positions 2..n, at index 2k + x1, with ones-count k + x1; transition
    masses are exact binomial sums.

    An offspring's ones-count lies within t of k, where t = 1 for one-bit
    mutation, so each kernel row is one run of W = 2 min(2t+1, n) classes
    from offset 2 clip(k-t, 0, n - W/2) on, and no (2n)^2 kernel is built.
    The bitwise kernel keeps at most t = min(24, n-1) flips among the ones
    and as many among the zeros.  By the union bound, a side drops at most
    C(m, 25) n^-25 < 1/25! of mass, so a row loses less than 2/25!
    (about 1.3e-25, far below rounding) and nothing for n <= 25.  The
    builder counts the dropped mass as staying put, so the chain it solves is
    stochastic and differs from the exact one by less than 2/25! per row.
    """
    bitwise = MutationKind(mutation_kind) is MutationKind.BITWISE
    ks = np.arange(n)
    t = min(24, n - 1) if bitwise else 1
    half = min(2 * t + 1, n)
    start = np.clip(ks - t, 0, n - half)
    # law of the offspring's ones-count start[k] + j over positions 2..n, per
    # current k, jointly with its first bit kept (`stay`) or flipped (`flip`)
    stay, flip = np.zeros((2, n, half))
    if bitwise:
        p = 1.0 / n
        # pmf[m, i] = P[Bin(m, p) = i] for i <= t, by the ratio
        # C(m, i) / C(m, i-1) = (m-i+1) / i; it is 0 above the support (i > m)
        i = np.arange(1, t + 1)
        pmf = np.empty((n, t + 1))
        pmf[:, 0] = (1 - p) ** ks
        pmf[:, 1:] = np.cumprod((ks[:, None] - i + 1) / i * (p / (1 - p)), axis=1) * pmf[:, :1]
        for k in range(n):
            # flips among the k ones, then among the n-1-k zeros: pmf of k - i + j
            a, z = min(t, k), min(t, n - 1 - k)
            j = k - a - start[k]
            stay[k, j : j + a + z + 1] = np.convolve(pmf[k, a::-1], pmf[n - 1 - k, : z + 1])
        np.multiply(stay, p, out=flip)
        stay *= 1.0 - p
    else:
        j = ks - start
        stay[ks[1:], j[1:] - 1] = ks[1:] / n
        stay[ks[:-1], j[:-1] + 1] = (n - 1 - ks[:-1]) / n
        flip[ks, j] = 1.0 / n
    # band[k, x1, j, y1]: offspring class (start[k] + j, y1) of class (k, x1)
    band = np.empty((n, 2, half, 2))
    band[:, 0, :, 0] = band[:, 1, :, 1] = stay
    band[:, 0, :, 1] = band[:, 1, :, 0] = flip

    # uniform initialization projects to binomial weights over k,
    # C(n-1, k+1) = C(n-1, k) (n-1-k) / (k+1) in exact integers; int / int
    # rounds correctly even where 2**(n-1) overflows a float (n > 1024)
    counts = [1]
    for k in range(n - 1):
        counts.append(counts[-1] * (n - 1 - k) // (k + 1))
    total = 2 ** (n - 1)
    kw = np.array([c / total for c in counts])
    first = np.tile((0, 1), n)
    return (
        first, np.repeat(ks, 2) + first, band.reshape(2 * n, 2 * half),
        np.repeat(2 * start, 2), np.repeat(kw, 2) / 2,
    )
