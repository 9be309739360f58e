"""The traced run: spans around public calls, trial replay, and per-layer metrics.

Nothing here edits the package.  Spans are recorded from the benchmark's side
of each public call.  Engine time per trial comes from replaying every
``(seed, point, trial)`` stream in this process, because the pool workers'
time is not visible from outside ``run_experiment``.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from tlonemax import Population, RandomStream, run_alg1, run_alg2
from tlonemax.core import mutate_value_bitwise, mutate_value_one_bit

from workloads import KIND, WORKERS

CALLS_PER_LOOP = 200_000


class Tracer:
    """Spans ``[name, start, end, parent]`` kept in memory; ``parent`` is a span index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """A finished leaf span under the innermost open span."""
        self.spans.append([name, start, end, self._open[-1] if self._open else -1])

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def to_json(self) -> list[list]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]


@contextmanager
def traced_linalg_solve(tracer: Tracer):
    """Record a span around every ``numpy.linalg.solve`` call (the oracle's dense solve)."""
    solve = np.linalg.solve

    def wrapper(*args, **kwargs):
        with tracer.span("numpy.linalg.solve"):
            return solve(*args, **kwargs)

    np.linalg.solve = wrapper
    try:
        yield
    finally:
        np.linalg.solve = solve


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _trials(wl):
    """Every (config, point index, n, mu, trial) of one pass, in harness order."""
    for cfg in wl.configs:
        for pi, (n, mu) in enumerate(zip(cfg.n_values, cfg.resolved_mu())):
            for trial in range(cfg.trials):
                yield cfg, pi, n, mu, trial


def _engine(cfg, n, mu, rng):
    if cfg.algorithm == "muea":
        return run_alg2(n, mu, None, rng, cfg.early_exit)
    return run_alg1(n, KIND[cfg.algorithm], None, rng, cfg.early_exit)


@contextmanager
def _traced_population_random(tracer: Tracer):
    original = Population.__dict__["random"]

    def random(cls, n, mu, rng):
        t0 = perf_counter()
        pop = original.__func__(cls, n, mu, rng)
        tracer.add("algorithms.alg2_init", t0, perf_counter())
        return pop

    Population.random = classmethod(random)
    try:
        yield
    finally:
        Population.random = original


def replay_engine(wl, points, tracer: Tracer) -> tuple[int, list[str]]:
    """Re-run every trial of a pass, timing stream creation and the engine call.

    Returns the total generations and the problems found: the replayed
    outcomes must match the pass's counts.
    """
    engine_span = f"algorithms.run_{wl.engine}"
    tallies: dict[tuple[int, int], Counter] = {}
    generations = 0
    with tracer.span("replay.engine"), _traced_population_random(tracer):
        for cfg, pi, n, mu, trial in _trials(wl):
            with tracer.span("harness.trial"):
                t0 = perf_counter()
                rng = RandomStream(cfg.master_seed, (pi << 32) | trial)
                t1 = perf_counter()
                out = _engine(cfg, n, mu, rng)
                del rng  # freeing its cached blocks is part of the trial, not of the next stream
                t2 = perf_counter()
                tracer.add("core.stream_create", t0, t1)
                tracer.add(engine_span, t1, t2)
            generations += out.generation
            tallies.setdefault((id(cfg), pi), Counter())[out.kind.value] += 1
    problems = []
    keys = [(id(cfg), pi) for cfg in wl.configs for pi in range(len(cfg.n_values))]
    for key, p in zip(keys, points):
        want = Counter({"optimum": p.opt_count, "event_i": p.event_i_count,
                        "event_ii": p.event_ii_count, "budget": p.budget_count})
        if +tallies[key] != +want:
            problems.append(f"replay of {p.algorithm} n={p.n} gave {dict(tallies[key])}")
    return generations, problems


class _CountingGenerator:
    """Forwards to a numpy Generator, timing and counting the block fills."""

    def __init__(self, generator, tracer: Tracer, counts: Counter):
        self._generator = generator
        self._tracer = tracer
        self._counts = counts

    def _fill(self, span: str, method, args, kwargs):
        t0 = perf_counter()
        block = method(*args, **kwargs)
        self._tracer.add(span, t0, perf_counter())
        self._counts["generated"] += np.size(block)
        return block

    def integers(self, *args, **kwargs):
        return self._fill("core.index_refill", self._generator.integers, args, kwargs)

    def binomial(self, *args, **kwargs):
        return self._fill("core.flip_refill", self._generator.binomial, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


@contextmanager
def _counting_streams(tracer: Tracer, counts: Counter):
    init, next_index, next_flip_count = (
        RandomStream.__init__, RandomStream.next_index, RandomStream.next_flip_count)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.generator = _CountingGenerator(self.generator, tracer, counts)

    def counted_next_index(self, n):
        counts["consumed"] += 1
        return next_index(self, n)

    def counted_next_flip_count(self, n, rate):
        counts["consumed"] += 1
        return next_flip_count(self, n, rate)

    RandomStream.__init__ = counted_init
    RandomStream.next_index = counted_next_index
    RandomStream.next_flip_count = counted_next_flip_count
    try:
        yield
    finally:
        RandomStream.__init__ = init
        RandomStream.next_index = next_index
        RandomStream.next_flip_count = next_flip_count


def replay_draws(wl, tracer: Tracer) -> Counter:
    """Re-run every trial with counting streams: draws consumed, draws generated, fills."""
    counts: Counter = Counter()
    with tracer.span("replay.draws"), _counting_streams(tracer, counts):
        for cfg, pi, n, mu, trial in _trials(wl):
            _engine(cfg, n, mu, RandomStream(cfg.master_seed, (pi << 32) | trial))
    return counts


def per_call_loops(n: int, tracer: Tracer) -> dict[str, float]:
    """Nanoseconds per call of the core draw and mutation functions at string length n."""
    rng = RandomStream(0, 1 << 63)
    rate = 1.0 / n
    out = {}
    with tracer.span("core.next_index_loop"):
        t0 = perf_counter()
        for _ in range(CALLS_PER_LOOP):
            rng.next_index(n)
        out["core.next_index_ns"] = (perf_counter() - t0) / CALLS_PER_LOOP * 1e9
    with tracer.span("core.next_flip_count_loop"):
        t0 = perf_counter()
        for _ in range(CALLS_PER_LOOP):
            rng.next_flip_count(n, rate)
        out["core.next_flip_count_ns"] = (perf_counter() - t0) / CALLS_PER_LOOP * 1e9
    for name, mutate in (("core.mutate_bitwise_ns", mutate_value_bitwise),
                         ("core.mutate_one_bit_ns", mutate_value_one_bit)):
        value = rng.random_bits(n)
        ones = value.bit_count()
        with tracer.span(name.removesuffix("_ns") + "_loop"):
            t0 = perf_counter()
            for _ in range(CALLS_PER_LOOP):
                value, ones = mutate(value, ones, n, rng)
            out[name] = (perf_counter() - t0) / CALLS_PER_LOOP * 1e9
    return out


def _pass_walls(tracer: Tracer, name: str) -> list[float]:
    """Summed duration of the ``name`` spans inside each traced pass."""
    totals: dict[int, float] = {}
    for n, start, end, parent in tracer.spans:
        if n == name:
            totals[parent] = totals.get(parent, 0.0) + (end - start)
    return list(totals.values())


def monte_carlo_metrics(wl, points, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of a Monte Carlo workload whose traced passes are in ``tracer``."""
    generations, problems = replay_engine(wl, points, tracer)
    counts = replay_draws(wl, tracer)
    m = per_call_loops(wl.layer_n, tracer)

    stream = tracer.durations("core.stream_create")
    engine_s = tracer.durations(f"algorithms.run_{wl.engine}")
    busy = sum(stream) + sum(engine_s)
    wall = statistics.median(_pass_walls(tracer, "harness.run_experiment"))

    m["core.stream_create_us"] = statistics.median(stream) * 1e6
    m["core.index_refill_us"] = statistics.median(tracer.durations("core.index_refill")) * 1e6
    m["core.flip_refill_us"] = statistics.median(tracer.durations("core.flip_refill")) * 1e6
    m["core.index_refills"] = len(tracer.durations("core.index_refill"))
    m["core.flip_refills"] = len(tracer.durations("core.flip_refill"))
    m["core.draw_use_ratio"] = counts["consumed"] / counts["generated"]
    m["algorithms.generations"] = generations
    m["harness.parallel_efficiency"] = busy / (WORKERS * wall)
    m["harness.overhead_s"] = wall - busy / WORKERS
    if wl.engine == "alg1":
        m["algorithms.alg1_trial_us.p50"] = statistics.median(engine_s) * 1e6
        m["algorithms.alg1_trial_us.p99"] = _percentile(engine_s, 99) * 1e6
        m["algorithms.alg1_gen_ns"] = sum(engine_s) / generations * 1e9
    else:
        init = tracer.durations("algorithms.alg2_init")
        m["algorithms.alg2_init_ms"] = statistics.median(init) * 1e3
        m["algorithms.alg2_gen_us"] = (sum(engine_s) - sum(init)) / generations * 1e6
    return m, problems


def oracle_metrics(tracer: Tracer) -> dict[str, float]:
    """Median solver times over the traced passes, and the dense-solve share."""
    names = ("oracle.lumped_bitwise", "oracle.lumped_one_bit", "oracle.full_bitwise",
             "oracle.lemma2_exact")
    m = {f"{name}_s": statistics.median(tracer.durations(name)) for name in names}
    chains = sum(sum(tracer.durations(name)) for name in names[:3])
    m["oracle.linalg_solve_share"] = sum(tracer.durations("numpy.linalg.solve")) / chains
    return m


def layer_metrics(wl, result, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    if wl.engine is None:
        return oracle_metrics(tracer), []
    return monte_carlo_metrics(wl, result, tracer)


def write_spans(path, tracers: dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({source: t.to_json() for source, t in tracers.items()}, fh)
