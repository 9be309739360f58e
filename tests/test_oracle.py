"""Closed forms, tail bounds, and the exact absorption solvers."""

import contextlib
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tlonemax import (
    MutationKind,
    OutcomeKind,
    aux_ineq,
    chernoff_geometric,
    chernoff_lower,
    classify,
    lemma2_bruteforce,
    lemma2_exact,
    markov_full_absorption,
    markov_lumped_absorption,
    min_population,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
from tlonemax import oracle
from tlonemax.oracle import g_log, h1_log, h2_log, lemma2_lower_bound


def _term_by_term_lemma2(n, a):
    """The closed form of ``lemma2_exact``, with every power and binomial
    computed inside its own term: the reference for its Horner form."""
    num = 0
    den = 0
    for i in range(1, a + 1):
        ca = math.comb(a, i)
        t = math.comb(n - a, i - 1)
        if t:
            num += ca * t * (n - 1) ** (n - 2 * i + 1)
        for j in range(0, i):
            t = math.comb(n - a, j)
            if t:
                den += ca * t * (n - 1) ** (n - i - j)
    return Fraction(num, den)


class TestConditionalProbability:
    def test_frozen_exact_values(self):
        # independently verified against the 2^n mask enumeration
        assert lemma2_exact(2, 1) == Fraction(1)
        assert lemma2_exact(4, 2) == Fraction(20, 23)
        assert lemma2_exact(6, 3) == Fraction(2103, 2518)
        assert lemma2_exact(5, 5) == Fraction(1280, 2101)

    def test_single_zero_makes_single_gain_certain(self):
        # with one zero left the gain can never exceed one
        for n in range(2, 9):
            assert lemma2_exact(n, 1) == 1

    def test_exact_equals_bruteforce(self):
        for n in range(2, 9):
            for a in range(1, n + 1):
                assert lemma2_exact(n, a) == lemma2_bruteforce(n, a)

    def test_equals_term_by_term_sums(self):
        # for a > (n+1)/2 the ones-flips stop at j = n-a before j = i-1
        for n in range(2, 25):
            for a in range(1, n + 1):
                assert lemma2_exact(n, a) == _term_by_term_lemma2(n, a)
        for a in range(1, 61):
            assert lemma2_exact(60, a) == _term_by_term_lemma2(60, a)
        for a in (1, 2, 100, 199, 200):
            assert lemma2_exact(200, a) == _term_by_term_lemma2(200, a)

    def test_lower_bound_holds(self):
        for n in range(2, 13):
            for a in range(1, n + 1):
                assert float(lemma2_exact(n, a)) > lemma2_lower_bound(n, a)

    def test_is_a_probability(self):
        for n in range(2, 10):
            for a in range(1, n + 1):
                assert 0 < lemma2_exact(n, a) <= 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lemma2_exact(4, 0)
        with pytest.raises(ValueError):
            lemma2_exact(4, 5)
        with pytest.raises(ValueError):
            lemma2_bruteforce(15, 1)


class TestTailBounds:
    def test_zero_slack_gives_trivial_bound(self):
        assert chernoff_lower(12.0, 0.0) == 1.0
        assert chernoff_geometric(5, 0.0) == 1.0

    def test_known_values(self):
        assert chernoff_lower(8.0, 0.5) == pytest.approx(math.exp(-1.0))
        assert chernoff_geometric(11, 1.0) == pytest.approx(math.exp(-2.5))
        # 2 (1 + delta) overflows here, and inf / inf would be nan
        assert chernoff_geometric(20, 1e308) == 0.0
        # one summand has no tail; delta * delta overflows from about 1.34e154,
        # and inf * (m - 1) would be nan
        for delta in (0.0, 0.5, 1e154, 1e200, sys.float_info.max):
            assert chernoff_geometric(1, delta) == 1.0

    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    def test_lower_bound_in_unit_interval(self, expectation, delta):
        assert 0.0 < chernoff_lower(expectation * 100, delta) <= 1.0

    def test_monotone_in_slack(self):
        deltas = np.linspace(0, 1, 21)
        for evaluate in (
            lambda d: chernoff_lower(30.0, d),
            lambda d: chernoff_geometric(40, d),
        ):
            values = [evaluate(d) for d in deltas]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_lower(10.0, 1.5)
        with pytest.raises(ValueError):
            chernoff_geometric(0, 0.1)
        with pytest.raises(ValueError):
            chernoff_geometric(5, -0.1)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^delta must be finite"):
                chernoff_geometric(5, delta)
        for expectation, delta in ((math.inf, 0.0), (math.nan, 0.5)):
            with pytest.raises(ValueError, match="^expectation must be finite"):
                chernoff_lower(expectation, delta)


class TestMonotoneHelpers:
    def test_h_exact_values(self):
        # h1 = C(a+d-1, d) / n^(d+1) and h2 = C(a+d-1, d-1) / n^d
        assert math.exp(h1_log(2, 5, [1])[0]) == pytest.approx(2 / 25, rel=1e-12)
        assert math.exp(h2_log(2, 5, [2])[0]) == pytest.approx(3 / 25, rel=1e-12)

    def test_exact_and_log_agree(self):
        for a, n, d in ((2, 5, 1), (1, 10, 3), (4, 12, 5), (2, 30, 20)):
            h1 = Fraction(math.comb(a + d - 1, d), n ** (d + 1))
            h2 = Fraction(math.comb(a + d, d), n ** (d + 1))  # h2 at d+1
            assert h1_log(a, n, [d])[0] == pytest.approx(math.log(h1), rel=1e-12)
            assert h2_log(a, n, [d + 1])[0] == pytest.approx(math.log(h2), rel=1e-12)

    def test_domain_is_the_integers(self):
        # a = 0 would index the log-gamma table at -1, which wraps to its end
        for a, d in ((0, [1]), (2, [-1]), (np.arange(0, 3)[:, None], [1]), (2, [0.5]), (2.0, [1])):
            with pytest.raises(ValueError, match="^a must be integers"):
                h1_log(a, 5, d)
        with pytest.raises(ValueError):
            h2_log(2, 5, [0])

    def test_strictly_decreasing_small_grid(self):
        for n in (5, 20, 80):
            for a in (1, 2, n // 2):
                v1 = h1_log(a, n, np.arange(0, n - a))
                v2 = h2_log(a, n, np.arange(1, n - a + 1))
                assert np.all(np.diff(v1) < 0)
                assert np.all(np.diff(v2) < 0)

    def test_column_of_a_gives_the_per_a_rows(self):
        # the acceptance suite's criterion 8 evaluates each n over this grid
        for n in (2, 3, 50, 377):
            a = np.arange(1, n)[:, None]
            rows1 = h1_log(a, n, np.arange(0, n - 1))
            rows2 = h2_log(a, n, np.arange(1, n))
            for k in range(1, n):
                assert np.array_equal(rows1[k - 1, : n - k], h1_log(k, n, np.arange(0, n - k)))
                assert np.array_equal(rows2[k - 1, : n - k], h2_log(k, n, np.arange(1, n - k + 1)))

    def test_g_values_and_monotonicity(self):
        assert g_log(1, 100) == pytest.approx(math.log(1.0 / 100.0), rel=1e-12)
        values = g_log(np.arange(1, 11), 100)
        assert np.all(np.diff(values) < 0)

    def test_aux_inequality(self):
        assert aux_ineq(119)
        assert aux_ineq(1_000_000)
        with pytest.raises(ValueError):
            aux_ineq(118)


class TestTheoremBounds:
    def test_vacuous_at_desk_scale(self):
        assert theorem1_bound(100) < 0
        assert theorem2_bound(20, 769, 1e-9) <= 0

    def test_eventually_meaningful(self):
        assert theorem1_bound(10**9) > 0.9
        n = 10**6
        assert theorem2_bound(n, min_population(n, 0.1), 0.1) > 0.0
        assert theorem3_bound(n, min_population(n, 0.1), 0.1) > 0.0

    def test_increasing_beyond_numeric_onset(self):
        # the failure lower bound decreases up to n = 530 and increases after
        values = [theorem1_bound(n) for n in range(520, 1200)]
        onset = 530 - 520
        assert all(a > b for a, b in zip(values[:onset], values[1 : onset + 1]))
        assert all(a < b for a, b in zip(values[onset:], values[onset + 1 :]))

    def test_three_n_term_ordering(self):
        # the conditioning-event bound subtracts one extra n-term
        for n in (100, 1000):
            mu = min_population(n, 1e-9)
            assert theorem3_bound(n, mu, 1e-9) < theorem2_bound(n, mu, 1e-9)

    def test_equal_their_closed_forms(self):
        # the two tail terms written out by hand, as the theorems state them
        def closed_form(n, mu, delta, coeff):
            return (
                1.0
                - (mu + 2) * math.exp(-n / 8.0)
                - math.exp(-delta * delta * (n - 1) / (2.0 * (1.0 + delta)))
                - coeff * n * math.exp(-math.sqrt(n) / 20.0)
            )

        sizes = [*range(2, 3000), 10**4, 20_551, 5 * 10**4, 7 * 10**5, 10**6, 2**53]
        for n in sizes:
            for delta in (1e-9, 0.1, 0.5, 1.0, 3.0, 1e300):
                mus = [1, 5, 2**53]
                with contextlib.suppress(ValueError):  # no guaranteed size above 2**53
                    mus.append(min_population(n, delta))
                for mu in mus:
                    assert theorem2_bound(n, mu, delta) == closed_form(n, mu, delta, 2.0)
                    assert theorem3_bound(n, mu, delta) == closed_form(n, mu, delta, 3.0)

    def test_finite_at_the_float_maximum_delta(self):
        # the delta term vanishes; it was nan for delta >= 8.99e307
        tail = 7 * math.exp(-2.5)
        assert theorem2_bound(20, 5, 1e308) == 1 - tail - 40 * math.exp(-math.sqrt(20) / 20)
        assert theorem3_bound(20, 5, 1e308) == 1 - tail - 60 * math.exp(-math.sqrt(20) / 20)

    def test_min_population_values(self):
        assert min_population(20, 1e-9) == 769
        assert min_population(100, 1e-9) == 3699
        # tracks 4 * (1 + delta) * (3e + 1) * (n + 1) within rounding
        for n in (10, 50, 333):
            raw = 4 * (1 + 1e-9) * (3 * math.e + 1) * (n + 1)
            assert abs(min_population(n, 1e-9) - raw) <= 0.5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theorem1_bound(1)
        with pytest.raises(ValueError):
            theorem2_bound(10, 0, 0.1)
        with pytest.raises(ValueError):
            min_population(10, 0.0)

    def test_min_population_above_float_limit_rejected(self):
        assert min_population(2, 1e13) < 2**53
        for delta in (1e15, 1e300, 1e308):
            with pytest.raises(ValueError, match=r"population size must be at most 2\*\*53"):
                min_population(2, delta)

    def test_non_finite_delta_rejected(self):
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must be finite and > 0"):
                min_population(10, delta)
            for bound in (theorem2_bound, theorem3_bound):
                with pytest.raises(ValueError, match="delta must be finite and > 0"):
                    bound(10, 5, delta)


def _per_state_loop_chain(n, kind):
    """Absorption probabilities of the full chain, written as one loop per state.

    An independent reference for the vectorised builder: each state
    (b, x) scores every offspring y with the objective written out, and the
    absorbing states come from the event definitions.
    """
    size = 1 << n
    p = 1.0 / n
    opt, ev_i, ev_ii = [], [], []
    for b in (0, 1):
        for x in range(size):
            opt.append(b == 0 and x == size - 1)
            ev_i.append(b == 0 and x & 1 == 1 and x != size - 1)
            ev_ii.append(b == 1 and x == size - 1)
    absorbing = np.array(opt) | np.array(ev_i) | np.array(ev_ii)
    P = np.eye(2 * size)
    for b in (0, 1):
        for x in range(size):
            s = b * size + x
            if absorbing[s]:
                continue
            for y in range(size):
                flips = (x ^ y).bit_count()
                if kind is MutationKind.BITWISE:
                    prob = p**flips * (1 - p) ** (n - flips)
                else:
                    prob = p if flips == 1 else 0.0
                if y.bit_count() - n * (x & 1) >= x.bit_count() - n * b:
                    P[s, s] -= prob
                    P[s, (x & 1) * size + y] += prob
    trans = ~absorbing
    A = np.eye(trans.sum()) - P[np.ix_(trans, trans)]
    result = []
    for target in (opt, ev_i, ev_ii):
        target = np.array(target, dtype=float)
        target[trans] = np.linalg.solve(A, P[trans] @ target)
        result.append(target)
    return result


def _per_k_pmf_lumped_chain(n):
    """The bitwise lumped chain with its kernel built one row at a time.

    Each row takes two ``stats.binom.pmf`` calls, flips among the k ones and
    among the n-1-k zeros, and convolves them: the reference for the
    table-built kernel of ``markov_lumped_absorption``.
    """
    p = 1.0 / n
    kdist = np.zeros((n, n))
    for k in range(n):
        down = stats.binom.pmf(np.arange(k + 1), k, p)
        up = stats.binom.pmf(np.arange(n - k), n - 1 - k, p)
        kdist[k] = np.convolve(down[::-1], up)
    # class (k, x1) at index 2k + x1, each row one band as wide as the chain
    M = np.empty((n, 2, n, 2))
    M[:, 0, :, 0] = M[:, 1, :, 1] = (1.0 - p) * kdist
    M[:, 0, :, 1] = M[:, 1, :, 0] = p * kdist
    kw = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float) / 2 ** (n - 1)
    first = np.tile((0, 1), n)
    return oracle._selection_chain(
        n, first, np.repeat(np.arange(n), 2) + first, M.reshape(2 * n, 2 * n),
        np.zeros(2 * n, dtype=int), np.repeat(kw, 2) / 2,
    )


def _exact_lumped_chain(n, kind):
    """The lumped chain's absorption probabilities in exact rationals.

    Written out from the definitions, independently of the builder.  A state
    is (b, x1, k): the stored first bit, the current first bit and the
    ones-count of positions 2..n.  The events come from their predicates and
    acceptance from the objective f = x1 + k - n b.  The bitwise kernel
    convolves ``math.comb`` binomials over every flip count, with no cut; its
    weights are scaled by the common denominator n^n, which cancels.
    Selection never lowers f, and within a level a transient state can move
    only from x1 = 1 to x1 = 0, so solving by f from the top down, x1 = 0
    first, finds every other target solved (a lookup would fail otherwise).
    Each state's value is then the mean of its targets, weighted by the
    accepted moves that leave it.
    """
    def kernel(x1, k):
        # offspring class (y1, k') -> its probability times n^n (n for one-bit)
        if kind is MutationKind.ONE_BIT:
            moves = {(1 - x1, k): 1, (x1, k - 1): k, (x1, k + 1): n - 1 - k}
            return {y: w for y, w in moves.items() if w}
        moves = {}
        for i in range(k + 1):  # ones flipped
            for j in range(n - k):  # zeros flipped
                w = math.comb(k, i) * math.comb(n - 1 - k, j) * (n - 1) ** (n - 1 - i - j)
                for y1, w1 in ((x1, n - 1), (1 - x1, 1)):
                    moves[y1, k - i + j] = moves.get((y1, k - i + j), 0) + w1 * w
        return moves

    def f(b, x1, k):
        return x1 + k - n * b

    states = [(b, x1, k) for b in (0, 1) for x1 in (0, 1) for k in range(n)]
    solved = {}  # state -> (P[optimum], P[event I], P[event II])
    for b, x1, k in states:
        if x1 == 1 and k == n - 1:  # the all-ones string: optimum or event II
            solved[b, x1, k] = (Fraction(1 - b), Fraction(0), Fraction(b))
        elif b == 0 and x1 == 1:  # event I
            solved[b, x1, k] = (Fraction(0), Fraction(1), Fraction(0))
    transient = sorted((s for s in states if s not in solved), key=lambda s: (-f(*s), s[1]))
    for state in transient:
        b, x1, k = state
        leaving, total = 0, [Fraction(0)] * 3
        for (y1, k2), w in kernel(x1, k).items():
            target = (x1, y1, k2)
            if target != state and f(*target) >= f(*state):
                leaving += w
                total = [t + w * v for t, v in zip(total, solved[target])]
        solved[state] = tuple(t / leaving for t in total)
    return solved


def _lumped_chain_inputs(n, kind):
    """The class arrays ``first`` and ``ones`` of the lumped chain and its
    kernel ``M`` from ``oracle._lumped_kernel``, as a dense matrix."""
    first, ones, band, offset, _ = oracle._lumped_kernel(n, kind)
    M = np.zeros((len(band), len(band)))
    M[np.arange(len(band))[:, None], offset[:, None] + np.arange(band.shape[1])] = band
    return first, ones, M


def _dense_lumped_chain(n, kind):
    """The lumped chain and the same chain solved as one dense system.

    The reference for the block solver: it takes the kernel ``M`` of
    ``oracle._lumped_kernel``, writes the acceptance rule and the absorbing
    states out from their definitions, and makes one ``np.linalg.solve`` over
    the whole transient system, with the builder's diagonal.
    """
    result = markov_lumped_absorption(n, kind)
    first, ones, M = _lumped_chain_inputs(n, kind)
    C = len(first)
    optimum = ones == n
    b, c = np.divmod(np.arange(2 * C), C)
    targets = np.column_stack([
        (b == 0) & optimum[c],
        (b == 0) & (first[c] == 1) & ~optimum[c],
        (b == 1) & optimum[c],
    ]).astype(float)
    trans = targets.sum(axis=1) == 0
    # f(b, x) = ones(x) - n b; an offspring y of x is kept iff f(x1, y) >= f(b, x)
    accept = ones - n * first[c, None] >= (ones[c] - n * b)[:, None]
    P = np.zeros((2 * C, 2 * C))
    P[np.arange(2 * C)[:, None], first[c, None] * C + np.arange(C)] = np.where(accept, M[c], 0.0)
    # P holds the accepted moves only; the rest of each row stays put, so the
    # diagonal of I - Q is the accepted mass that leaves the state
    A = -P[np.ix_(trans, trans)]
    A[np.diag_indices_from(A)] += P[trans].sum(axis=1)
    targets[trans] = np.linalg.solve(A, P[np.ix_(trans, ~trans)] @ targets[~trans])
    return result, targets.T


class TestAbsorption:
    def test_lumped_block_solver_matches_one_dense_solve(self):
        for n in (50, 200):
            for kind in MutationKind:
                result, (p_opt, p_i, p_ii) = _dense_lumped_chain(n, kind)
                assert np.max(np.abs(result.p_optimum - p_opt)) < 1e-13
                assert np.max(np.abs(result.p_event_i - p_i)) < 1e-13
                assert np.max(np.abs(result.p_event_ii - p_ii)) < 1e-13

    def test_lumped_chain_solves_in_blocks_of_levels(self, monkeypatch):
        # one solve per fitness level would be 2n = 800 solves
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        markov_lumped_absorption(400, MutationKind.ONE_BIT)
        assert len(calls) < 100

    def test_lumped_bitwise_equals_per_k_pmf_rows(self):
        # up to n=25 the 24-flip band drops nothing, so the chains differ only
        # by the rounding of two ways to compute the same pmfs
        for n in (2, 3, 7, 25):
            result = markov_lumped_absorption(n, MutationKind.BITWISE)
            reference = _per_k_pmf_lumped_chain(n)
            assert np.max(np.abs(result.p_optimum - reference.p_optimum)) < 1e-14
            assert np.max(np.abs(result.p_event_i - reference.p_event_i)) < 1e-14
            assert np.max(np.abs(result.p_event_ii - reference.p_event_ii)) < 1e-14
            assert np.array_equal(result.start_weights, reference.start_weights)
        # beyond it the band drops less than 2/25! per row, far below rounding
        for n in (64, 400):
            result = markov_lumped_absorption(n, MutationKind.BITWISE)
            reference = _per_k_pmf_lumped_chain(n)
            assert np.max(np.abs(result.p_optimum - reference.p_optimum)) < 1e-12
            assert np.max(np.abs(result.p_event_i - reference.p_event_i)) < 1e-12
            assert np.max(np.abs(result.p_event_ii - reference.p_event_ii)) < 1e-12
            assert np.array_equal(result.start_weights, reference.start_weights)

    def test_flip_band_drops_mass_below_rounding(self):
        # the bitwise kernel keeps at most 24 flips among the ones and 24 among
        # the zeros; at n=1000 either side drops P[Bin(<= 999, 1/1000) > 24]
        n = 1000
        p = Fraction(1, n)
        kept = sum(math.comb(n - 1, i) * p**i * (1 - p) ** (n - 1 - i) for i in range(25))
        assert 1 - kept < Fraction(1, 2**64)
        M = _lumped_chain_inputs(n, MutationKind.BITWISE)[2]
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-14

    def test_matches_per_state_loop(self):
        # at n=8 a fitness level holds up to 70 transient states
        for n in (2, 3, 5, 8):
            for kind in MutationKind:
                result = markov_full_absorption(n, kind)
                p_opt, p_i, p_ii = _per_state_loop_chain(n, kind)
                assert np.max(np.abs(result.p_optimum - p_opt)) < 1e-12
                assert np.max(np.abs(result.p_event_i - p_i)) < 1e-12
                assert np.max(np.abs(result.p_event_ii - p_ii)) < 1e-12

    def test_probabilities_sum_to_one(self):
        for kind in MutationKind:
            result = markov_full_absorption(5, kind)
            assert np.max(np.abs(result.residual)) < 1e-10
            # the lumped chain keeps the band's dropped mass in place, so its
            # rows are stochastic and only rounding is left
            for n in (400, 1000):
                residual = markov_lumped_absorption(n, kind).residual
                assert np.max(np.abs(residual)) < 1e-12, f"n={n} {kind.value}"

    def test_lumped_matches_exact_rational_chain(self):
        for n in (10, 30):
            for kind in MutationKind:
                result = markov_lumped_absorption(n, kind)
                index = {(b, x1, k): b * 2 * n + 2 * k + x1
                         for b in (0, 1) for x1 in (0, 1) for k in range(n)}
                for state, exact in _exact_lumped_chain(n, kind).items():
                    for value, computed in zip(exact, (result.p_optimum, result.p_event_i,
                                                       result.p_event_ii)):
                        assert abs(float(value) - computed[index[state]]) < 1e-14, (
                            f"n={n} {kind.value} state {state}")

    def test_absorbing_states_are_certain(self):
        # a state that classify names absorbing carries probability 1 in the
        # column of its own class and 0 in the others; the full chain's
        # classes come from the string bits, the lumped chain's from its kernel
        columns = (OutcomeKind.OPTIMUM_FOUND, OutcomeKind.STAGNATED_EVENT_I,
                   OutcomeKind.STAGNATED_EVENT_II)
        for n in (4, 6):
            for kind in MutationKind:
                first, ones = oracle._lumped_kernel(n, kind)[:2]
                chains = {
                    markov_full_absorption: [(x & 1, x.bit_count()) for x in range(1 << n)],
                    markov_lumped_absorption: list(zip(first.tolist(), ones.tolist())),
                }
                for solver, classes in chains.items():
                    result = solver(n, kind)
                    rows = np.column_stack(
                        [result.p_optimum, result.p_event_i, result.p_event_ii]).tolist()
                    states = [(b, x1, k) for b in (0, 1) for x1, k in classes]
                    assert len(states) == len(rows)
                    absorbing = 0
                    for state, row in zip(states, rows):
                        outcome = classify(*state, n)
                        if outcome is not None:
                            assert row == [float(c is outcome) for c in columns], (
                                f"n={n} {kind.value} {solver.__name__} {state}")
                            absorbing += 1
                    assert absorbing > 0

    def test_lumped_kernel_builds_past_float_range(self):
        # 2**(n-1) overflows a float above n = 1024; each class weight is its
        # exact binomial count over 2**(n-1), correctly rounded, then halved
        # between the two stored first bits
        for n in (1025, 2000):
            for kind in MutationKind:
                weights = oracle._lumped_kernel(n, kind)[4]
                assert weights.sum() == pytest.approx(1.0, abs=1e-12)
                for k in (0, 1, n // 3, n // 2, n - 1):
                    want = float(Fraction(math.comb(n - 1, k), 2 ** (n - 1))) / 2
                    assert weights[2 * k] == weights[2 * k + 1] == want, f"n={n} k={k}"

    def test_frozen_uniform_start_values(self):
        uniform = markov_full_absorption(4, MutationKind.BITWISE).from_uniform()
        assert uniform["p_optimum"] == pytest.approx(0.167353678774032, abs=1e-12)
        assert uniform["p_event_i"] == pytest.approx(0.660985469145194, abs=1e-12)
        assert uniform["p_event_ii"] == pytest.approx(0.171660852080774, abs=1e-12)

    def test_frozen_failure_probabilities_n6(self):
        one_bit = markov_full_absorption(6, MutationKind.ONE_BIT).failure_probability()
        bitwise = markov_full_absorption(6, MutationKind.BITWISE).failure_probability()
        assert one_bit == pytest.approx(0.840494791666666, abs=1e-12)
        assert bitwise == pytest.approx(0.912696444232041, abs=1e-12)

    def test_frozen_lumped_uniform_start_values_n50(self):
        # beyond the full chain's reach, so no other test pins these
        frozen = {
            MutationKind.ONE_BIT: (0.0198000000000004, 0.7302, 0.2500000000000004),
            MutationKind.BITWISE: (0.003559577587366, 0.835484290711192, 0.160956131701435),
        }
        for kind, values in frozen.items():
            uniform = markov_lumped_absorption(50, kind).from_uniform()
            for key, value in zip(("p_optimum", "p_event_i", "p_event_ii"), values):
                assert uniform[key] == pytest.approx(value, abs=1e-12)

    def test_start_weights_are_a_distribution(self):
        for solver in (markov_full_absorption, markov_lumped_absorption):
            result = solver(6, MutationKind.BITWISE)
            assert result.start_weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(result.start_weights >= 0)

    def test_lumped_matches_full_small(self):
        for n in (2, 3, 5, 7):
            for kind in MutationKind:
                full = markov_full_absorption(n, kind).from_uniform()
                lumped = markov_lumped_absorption(n, kind).from_uniform()
                for key in full:
                    assert lumped[key] == pytest.approx(full[key], abs=1e-10)

    def test_lumped_scales_to_large_n(self):
        frozen = {MutationKind.BITWISE: 0.999716312141414, MutationKind.ONE_BIT: 0.997503124999972}
        for kind, failure in frozen.items():
            result = markov_lumped_absorption(400, kind)
            assert np.max(np.abs(result.residual)) < 1e-8
            assert result.failure_probability() > 0.99
            assert result.failure_probability() == pytest.approx(failure, abs=1e-12)

    def test_lumped_holds_no_dense_chain_matrix(self):
        # a dense (4n)^2 chain at n=400 alone would take 20 MB, and a dense
        # (2n)^2 kernel at n=1000 32 MB
        for n in (400, 1000):
            for kind in MutationKind:
                tracemalloc.start()
                try:
                    markov_lumped_absorption(n, kind)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 16 * 2**20, f"n={n} {kind.value}: peak {peak / 2**20:.1f} MiB"

    def test_mutation_kind_by_member_or_value(self):
        for solver in (markov_full_absorption, markov_lumped_absorption):
            for kind in MutationKind:
                assert solver(6, kind.value).from_uniform() == solver(6, kind).from_uniform()
            with pytest.raises(ValueError, match="bitwse"):
                solver(6, "bitwse")

    def test_size_guards(self):
        with pytest.raises(ValueError):
            markov_full_absorption(11, MutationKind.BITWISE)
        with pytest.raises(ValueError):
            markov_lumped_absorption(1001, MutationKind.BITWISE)
        with pytest.raises(ValueError):
            markov_full_absorption(1, MutationKind.BITWISE)
