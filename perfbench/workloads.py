"""The benchmark's workloads: the public calls each one times, and its gate.

A workload's inputs come only from the benchmark seed: the package receives
the generated ``ExperimentConfig`` objects and solver arguments.  Every
reference value a gate compares against is computed when the workload is
built, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import math
import random
from contextlib import nullcontext

from tlonemax import (
    ExperimentConfig,
    MutationKind,
    lemma2_exact,
    markov_full_absorption,
    markov_lumped_absorption,
    run_experiment,
    wilson_interval,
)

WORKERS = 2

# Each statistical gate fails a correct program with probability 1e-6, so the
# many seeds of a benchmark campaign do not trip it by chance.
GATE_CONFIDENCE = 1.0 - 1e-6

KIND = {"rls": MutationKind.ONE_BIT, "oea": MutationKind.BITWISE}


def no_span(name):
    return nullcontext()


def _master_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


class MonteCarlo:
    """Calls ``run_experiment`` once per config; a pass returns every point.

    Layers on the path: ``core``, ``algorithms`` (alg1 or alg2), ``harness``.
    """

    def __init__(self, configs, gate, layer_n):
        self.configs = configs
        self.gate = gate  # points -> list of problems
        self.layer_n = layer_n  # string length used for the core per-call loops
        self.engine = "alg2" if configs[0].algorithm == "muea" else "alg1"
        self.ops_per_pass = sum(c.trials * len(c.n_values) for c in configs)

    def warm_up(self) -> None:
        cfg = self.configs[0]
        run_experiment(dataclasses.replace(
            cfg, n_values=cfg.n_values[:1], trials=WORKERS, master_seed=0))

    def run_pass(self, span=no_span):
        points = []
        for cfg in self.configs:
            with span("harness.run_experiment"):
                points.extend(run_experiment(cfg).points)
        return points

    def failed(self, points) -> int:
        return sum(p.failed_count for p in points)

    def check(self, points, first) -> list[str]:
        problems = [f"{p.algorithm} n={p.n}: {p.failed_count} failed trials"
                    for p in points if p.failed_count]
        for p in points:
            ends = p.opt_count + p.event_i_count + p.event_ii_count + p.budget_count
            if ends != p.trials:
                problems.append(f"{p.algorithm} n={p.n}: {ends} outcomes for {p.trials} trials")
        if first is None:
            problems += self.gate(points)
        elif [repr(dataclasses.astuple(p)) for p in points] != [
            repr(dataclasses.astuple(p)) for p in first
        ]:
            problems.append("pass differs from the first pass of the same seed")
        return problems


def _failure_rate_gate(predicted: dict[tuple[str, int], float]):
    """Empirical stagnation rate inside the Wilson interval around each prediction."""

    def gate(points):
        problems = []
        for p in points:
            pred = predicted[(p.algorithm, p.n)]
            lo, hi = wilson_interval(p.event_i_count + p.event_ii_count, p.trials, GATE_CONFIDENCE)
            if not lo <= pred <= hi:
                problems.append(
                    f"{p.algorithm} n={p.n}: predicted failure {pred:.5f} outside "
                    f"[{lo:.5f}, {hi:.5f}] ({p.failure_rate:.5f} observed)"
                )
        return problems

    return gate


def mc_short(seed: int, trials: int = 10_000) -> MonteCarlo:
    """rls and oea at n=6: ~9-generation trials, so per-stream and dispatch costs dominate."""
    seeds = _master_seeds("mc_short", seed, 2)
    configs = [
        ExperimentConfig(algorithm=alg, n_values=[6], trials=trials, master_seed=s, workers=WORKERS)
        for alg, s in zip(("rls", "oea"), seeds)
    ]
    predicted = {
        (alg, 6): markov_full_absorption(6, kind).failure_probability()
        for alg, kind in KIND.items()
    }
    return MonteCarlo(configs, _failure_rate_gate(predicted), layer_n=6)


def mc_long(seed: int, trials: int = 1000) -> MonteCarlo:
    """oea at n=100 and 200: trials of hundreds of generations, so per-draw costs dominate."""
    n_values = [100, 200]
    configs = [ExperimentConfig(
        algorithm="oea", n_values=n_values, trials=trials,
        master_seed=_master_seeds("mc_long", seed, 1)[0], workers=WORKERS,
    )]
    predicted = {
        ("oea", n): markov_lumped_absorption(n, MutationKind.BITWISE).failure_probability()
        for n in n_values
    }
    return MonteCarlo(configs, _failure_rate_gate(predicted), layer_n=200)


POP_MIN_SUCCESS = 0.95


def pop(seed: int, n_values=(20, 40), trials: int = 6) -> MonteCarlo:
    """muea at the guaranteed population size: few trials of thousands of generations."""
    configs = [ExperimentConfig(
        algorithm="muea", n_values=list(n_values), trials=trials,
        master_seed=_master_seeds("pop", seed, 1)[0], workers=WORKERS,
    )]

    def gate(points):
        return [f"muea n={p.n} mu={p.mu}: success rate {p.success_rate:.3f} < {POP_MIN_SUCCESS}"
                for p in points if p.success_rate < POP_MIN_SUCCESS]

    return MonteCarlo(configs, gate, layer_n=max(n_values))


class Exact:
    """The exact solvers of ``oracle``: no RNG, no process pool.  Layer: ``oracle``."""

    engine = None

    def __init__(self, lumped_n: int = 1000, full_n: int = 10, lemma2_n: int = 200):
        self.lumped_n = lumped_n
        self.full_n = full_n
        self.lemma2_n = lemma2_n
        self.ops_per_pass = 3 + lemma2_n
        # the full chain must agree with the lumped one (criterion 3's tolerance)
        self.full_reference = markov_lumped_absorption(full_n, MutationKind.BITWISE).from_uniform()

    def warm_up(self) -> None:
        markov_lumped_absorption(50, MutationKind.BITWISE)
        markov_full_absorption(4, MutationKind.BITWISE)
        lemma2_exact(20, 5)

    def run_pass(self, span=no_span):
        out = {}
        for name, solver, n, kind in (
            ("oracle.lumped_bitwise", markov_lumped_absorption, self.lumped_n, MutationKind.BITWISE),
            ("oracle.lumped_one_bit", markov_lumped_absorption, self.lumped_n, MutationKind.ONE_BIT),
            ("oracle.full_bitwise", markov_full_absorption, self.full_n, MutationKind.BITWISE),
        ):
            with span(name):
                out[name] = solver(n, kind)
        with span("oracle.lemma2_exact"):
            out["oracle.lemma2_exact"] = [
                lemma2_exact(self.lemma2_n, a) for a in range(1, self.lemma2_n + 1)
            ]
        return out

    def failed(self, out) -> int:
        return 0  # a solver that raises ends the run

    def check(self, out, first) -> list[str]:
        problems = []
        full = out["oracle.full_bitwise"].from_uniform()
        for key, ref in self.full_reference.items():
            if abs(full[key] - ref) > 1e-10:
                problems.append(f"full chain n={self.full_n} {key} {full[key]!r} != lumped {ref!r}")
        for name in ("oracle.lumped_bitwise", "oracle.lumped_one_bit"):
            res = out[name]
            worst = float(abs(res.residual).max())
            if worst > 1e-8:
                problems.append(f"{name}: absorption probabilities miss 1 by {worst:.3g}")
            if first is not None:
                a, b = res.from_uniform(), first[name].from_uniform()
                if any(abs(a[k] - b[k]) > 1e-12 for k in a):
                    problems.append(f"{name}: differs from the first pass")
        n = self.lemma2_n
        for a, value in enumerate(out["oracle.lemma2_exact"], start=1):
            if not 1.0 - math.e * a / n < float(value) <= 1.0:
                problems.append(f"lemma2_exact({n}, {a}) = {float(value)!r} outside (1 - e a/n, 1]")
        if first is not None and out["oracle.lemma2_exact"] != first["oracle.lemma2_exact"]:
            problems.append("lemma2_exact: differs from the first pass")
        return problems


def exact(seed: int) -> Exact:
    """Inputs are fixed: the exact solvers take no randomness."""
    return Exact()


BY_NAME = {"mc_short": mc_short, "mc_long": mc_long, "pop": pop, "exact": exact}
