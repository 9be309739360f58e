"""Experiment configuration, parallel Monte Carlo execution, and the report formats.

Every trial draws from its own stream derived from (master seed, point
index, trial index), and an experiment is one ordered map over its (point,
trial) grid, so the report bytes never depend on the worker count.  Each
process keeps one ``RandomStream`` and re-keys it for every trial; its
draws are identical to a fresh ``RandomStream(master_seed, key)``.  Wilson
intervals take z from ``statistics.NormalDist``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from statistics import NormalDist
from typing import Iterable

from .algorithms import (
    MutationKind,
    OutcomeKind,
    default_budget_alg1,
    default_budget_alg2,
    run_alg1,
    run_alg2,
)
from .core import RandomStream
from .oracle import SIZE_LIMIT, min_population, theorem1_bound, theorem2_bound

# the mutation operator of each single-individual algorithm
MUTATION = {"rls": MutationKind.ONE_BIT, "oea": MutationKind.BITWISE}
ALGORITHMS = (*MUTATION, "muea")
# the largest runtime-ratio spread that still reads as O(mu*n) scaling
SCALING_GATE = 2.0
# the most worker processes a run may ask for (the default, one per core, is
# not capped); the pool forks them all at once
MAX_WORKERS = 1024

_CSV_HEADER = (
    "algorithm,n,mu,trials,opt_count,eventI_count,eventII_count,budget_count,"
    "success_rate,wilson95_lo,wilson95_hi,cond_mean_gens,cond_var_gens,"
    "theorem_bound,seed"
)


class ConfigError(ValueError):
    """Invalid experiment configuration, with a field-level message."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


# the type each config field must have, and how a message names it
_FIELD_TYPES = {
    "algorithm": (lambda v: isinstance(v, str), "a string"),
    "n_values": (_is_int_list, "a list of integers"),
    "mu_values": (lambda v: v is None or _is_int_list(v), "a list of integers or null"),
    "delta": (_is_real, "a real number"),
    "trials": (_is_int, "an integer"),
    "budget_mult": (_is_real, "a real number"),
    "master_seed": (_is_int, "an integer"),
    "early_exit": (lambda v: isinstance(v, bool), "true or false"),
    "workers": (lambda v: v is None or _is_int(v), "an integer or null"),
}

# The populations of the trials that run at once may take at most this many
# bytes.  Per slot, the tracemalloc peak of Population.random stayed below 200
# bytes plus the 4 bytes per 30 bits of the n-bit string over n = 2..5000 (136
# at n=6, 168 at 40, 330 at 1000, 862 at 5000).
_POPULATION_BYTES = 2**30


@dataclass
class ExperimentConfig:
    algorithm: str
    n_values: list[int]
    mu_values: list[int] | None = None  # explicit mu per n; None uses the theorem rule
    delta: float = 1e-9
    trials: int = 100
    budget_mult: float = 1.0
    master_seed: int = 0
    early_exit: bool = True
    workers: int | None = None  # None: one per available core

    def validate(self) -> None:
        """Raise ``ConfigError``, naming the field, for any config that cannot run.

        That includes a ``workers`` value that would start more than
        ``MAX_WORKERS`` processes, and a muea point whose populations, one
        per worker process that runs trials at once, would take more than
        1 GiB together.
        """
        for name, (has_type, type_name) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not has_type(value):
                raise ConfigError(f"{name}: must be {type_name}, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.mu_values is not None and self.algorithm != "muea":
            raise ConfigError(f"mu_values: only muea has a population size, got {self.mu_values} "
                              f"for {self.algorithm}")
        if not self.n_values:
            raise ConfigError("n_values: must not be empty")
        if not all(2 <= n <= SIZE_LIMIT for n in self.n_values):
            raise ConfigError(f"n_values: all n must be in [2, 2**53], got {self.n_values}")
        # a trial's stream key is (master_seed, point_index << 32 | trial), two 64-bit words
        if not 1 <= self.trials <= 2**32:
            raise ConfigError(f"trials: must be in [1, 2**32], got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed: must be in [0, 2**64), got {self.master_seed}")
        if not 0 < self.budget_mult < math.inf:
            raise ConfigError(f"budget_mult: must be finite and > 0, got {self.budget_mult}")
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta: must be finite and > 0, got {self.delta}")
        if self.mu_values is not None and len(self.mu_values) != len(self.n_values):
            raise ConfigError("mu_values: must match n_values in length")
        if self.mu_values is not None and not all(1 <= m <= SIZE_LIMIT for m in self.mu_values):
            raise ConfigError(f"mu_values: all mu must be in [1, 2**53], got {self.mu_values}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers: must be >= 1 (or None for all cores), got {self.workers}")
        try:
            budgets = self._float_budgets()
        except ValueError as exc:  # the guaranteed population size, from delta
            raise ConfigError(f"delta: {exc}") from exc
        for n, budget in zip(self.n_values, budgets):
            if not 1 <= budget < math.inf:
                raise ConfigError(
                    f"budget_mult: {self.budget_mult} gives a budget of {budget:g} "
                    f"generations at n={n}; it must be finite and >= 1"
                )
        processes = self._pool_size()[1]
        if self.workers is not None and processes > MAX_WORKERS:
            raise ConfigError(f"workers: {self.trials} trials would start {processes} worker "
                              f"processes, above the limit of {MAX_WORKERS}")
        if self.algorithm != "muea":
            return
        name = "mu_values" if self.mu_values is not None else "delta"
        for n, mu in zip(self.n_values, self.resolved_mu()):
            size = mu * (200 + 4 * -(-n // 30))
            if processes * size > _POPULATION_BYTES:
                raise ConfigError(f"{name}: a population of mu={mu} at n={n} would take about "
                                  f"{size} bytes in each of {processes} process(es), above the "
                                  f"limit of 2**30 (1 GiB) in all")

    def _pool_size(self) -> tuple[int, int]:
        """``(chunk, processes)``: about 4 chunks per worker, and no process without a chunk."""
        workers = self.workers or os.cpu_count() or 1
        chunk = -(-self.trials // (4 * workers))
        return chunk, min(workers, -(-self.trials // chunk))

    def resolved_mu(self) -> list[int]:
        if self.algorithm != "muea":
            return [1] * len(self.n_values)
        if self.mu_values is not None:
            return list(self.mu_values)
        return [min_population(n, self.delta) for n in self.n_values]

    def _float_budgets(self) -> list[float]:
        if self.algorithm == "muea":
            return [default_budget_alg2(n, mu) * self.budget_mult
                    for n, mu in zip(self.n_values, self.resolved_mu())]
        return [default_budget_alg1(n) * self.budget_mult for n in self.n_values]

    def budgets(self) -> list[int]:
        """Generation budget per grid point: the default budget times budget_mult."""
        return [int(budget) for budget in self._float_budgets()]


@dataclass
class PointResult:
    """Aggregated outcomes for one (algorithm, n, mu) grid point."""

    algorithm: str
    n: int
    mu: int
    trials: int
    opt_count: int
    event_i_count: int
    event_ii_count: int
    budget_count: int
    failed_count: int
    cond_mean_gens: float
    cond_var_gens: float
    theorem_bound: float
    seed: int

    @property
    def success_rate(self) -> float:
        return self.opt_count / self.trials

    @property
    def failure_rate(self) -> float:
        return (self.event_i_count + self.event_ii_count) / self.trials

    @property
    def runtime_ratio(self) -> float | None:
        """``cond_mean_gens / (mu * n)``, or None below 2 successes or at a mean of 0.

        A mean of 0 means every success came from the initial population: no climb.
        """
        if self.opt_count >= 2 and self.cond_mean_gens > 0:
            return self.cond_mean_gens / (self.mu * self.n)
        return None

    def wilson95(self) -> tuple[float, float]:
        return wilson_interval(self.opt_count, self.trials, 0.95)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    points: list[PointResult] = field(default_factory=list)
    # messages of the trials that raised, in point and trial order; the
    # report formats carry only their per-point count, ``failed_count``
    errors: list[str] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes}/{trials}")
    # 1 - 2**-53, the one float between this range and 1, would round the
    # quantile's argument to 1, where z is infinite
    if not 0.0 < confidence <= 1.0 - 2**-52:
        raise ValueError(f"confidence must be in (0, 1 - 2**-52], got {confidence}")
    z = NormalDist().inv_cdf(1.0 - (1.0 - confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the boundary endpoints are exactly 0 and 1; keep them free of rounding
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# A trial never outlives its _run_trial call, and the in-process map runs
# trials one at a time, so one stream per process (each fork copies it) suffices.
_STREAM = RandomStream(0)


def _run_trial(
    algorithm: str, master_seed: int, early_exit: bool, points: list[tuple[int, int, int]],
    trials: int, task: int,
) -> tuple[OutcomeKind, int] | str:
    """Grid task ``point * trials + trial``: ``(kind, generation)``, or the raised message."""
    point, trial = divmod(task, trials)
    n, mu, budget = points[point]
    rng = _STREAM.rekey(master_seed, (point << 32) | trial)
    try:
        if algorithm == "muea":
            result = run_alg2(n, mu, budget, rng, early_exit)
        else:
            result = run_alg1(n, MUTATION[algorithm], budget, rng, early_exit)
    except Exception as exc:  # noqa: BLE001 - a bad trial must not kill the batch
        return f"{type(exc).__name__}: {exc}"
    return result.kind, result.generation  # a third of a TrialOutcome's pickle


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the (point, trial) grid as one ordered map; identical configs give identical bytes.

    A config that ``validate`` rejects raises its ``ConfigError`` before any trial runs.
    """
    config.validate()
    chunk, processes = config._pool_size()
    points = list(zip(config.n_values, config.resolved_mu(), config.budgets()))
    run_trial = functools.partial(_run_trial, config.algorithm, config.master_seed,
                                  config.early_exit, points, config.trials)
    tasks = range(len(points) * config.trials)
    report = ExperimentReport(config=config)
    # the fork start method launches all max_workers processes at the first submit
    with ProcessPoolExecutor(processes) if processes > 1 else contextlib.nullcontext() as pool:
        outcomes = (map(run_trial, tasks) if pool is None
                    else pool.map(run_trial, tasks, chunksize=chunk))
        for n, mu, _ in points:
            trials = itertools.islice(outcomes, config.trials)
            report.points.append(_aggregate(config, n, mu, trials, report.errors))
    return report


def _aggregate(
    config: ExperimentConfig, n: int, mu: int,
    outcomes: Iterable[tuple[OutcomeKind, int] | str], errors: list[str],
) -> PointResult:
    """Count one point's outcomes; the message of each trial that raised goes to ``errors``."""
    counts = dict.fromkeys(OutcomeKind, 0)
    failed = 0
    opt_gens: list[int] = []
    for outcome in outcomes:
        if isinstance(outcome, str):
            failed += 1
            errors.append(outcome)
            continue
        kind, generation = outcome
        counts[kind] += 1
        if kind is OutcomeKind.OPTIMUM_FOUND:
            opt_gens.append(generation)
    if opt_gens:
        mean = sum(opt_gens) / len(opt_gens)
        var = sum((g - mean) ** 2 for g in opt_gens) / len(opt_gens)
    else:
        mean = var = float("nan")
    if config.algorithm == "muea":
        bound = theorem2_bound(n, mu, config.delta)
    else:
        bound = theorem1_bound(n)
    return PointResult(
        algorithm=config.algorithm,
        n=n,
        mu=mu,
        trials=config.trials,
        opt_count=counts[OutcomeKind.OPTIMUM_FOUND],
        event_i_count=counts[OutcomeKind.STAGNATED_EVENT_I],
        event_ii_count=counts[OutcomeKind.STAGNATED_EVENT_II],
        budget_count=counts[OutcomeKind.BUDGET_EXHAUSTED],
        failed_count=failed,
        cond_mean_gens=mean,
        cond_var_gens=var,
        theorem_bound=bound,
        seed=config.master_seed,
    )


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.6g}"


def report_csv(report: ExperimentReport) -> str:
    lines = [_CSV_HEADER]
    for p in report.points:
        lo, hi = p.wilson95()
        lines.append(
            f"{p.algorithm},{p.n},{p.mu},{p.trials},{p.opt_count},{p.event_i_count},"
            f"{p.event_ii_count},{p.budget_count},{_fmt(p.success_rate)},{_fmt(lo)},"
            f"{_fmt(hi)},{_fmt(p.cond_mean_gens)},{_fmt(p.cond_var_gens)},"
            f"{_fmt(p.theorem_bound)},{p.seed}"
        )
    return "\n".join(lines) + "\n"


def report_json_obj(report: ExperimentReport) -> dict:
    points = []
    for p in report.points:
        lo, hi = p.wilson95()
        d = asdict(p)
        d["success_rate"] = float(_fmt(p.success_rate))
        d["wilson95_lo"] = float(_fmt(lo))
        d["wilson95_hi"] = float(_fmt(hi))
        for key in ("cond_mean_gens", "cond_var_gens"):  # JSON has no NaN: no successes is null
            if math.isnan(d[key]):
                d[key] = None
        points.append(d)
    # the worker count says how a run was executed, not what it computed
    config = {k: v for k, v in asdict(report.config).items() if k != "workers"}
    return {"config": config, "points": points}


def runtime_scaling_check(report: ExperimentReport) -> float:
    """The spread ``max / min`` of the points' ``runtime_ratio``; O(mu*n) when small.

    Raises ``ValueError`` below 2 points, or below 2 points with a ratio.
    """
    if len(report.points) < 2:
        raise ValueError("scaling check needs results for at least 2 values of n")
    ratios = [p.runtime_ratio for p in report.points if p.runtime_ratio is not None]
    if len(ratios) < 2:
        raise ValueError("scaling check needs >= 2 points with successful trials")
    return max(ratios) / min(ratios)
