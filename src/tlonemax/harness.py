"""Experiment configuration, parallel Monte Carlo execution, and result files.

Every trial draws from its own stream derived from (master seed, point
index, trial index), and its outcome is mapped back in trial order, so the
report bytes never depend on the worker count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Iterable

from scipy import stats as _stats

from .algorithms import (
    MutationKind,
    OutcomeKind,
    default_budget_alg1,
    default_budget_alg2,
    run_alg1,
    run_alg2,
)
from .core import RandomStream
from .oracle import min_population, theorem1_bound, theorem2_bound

ALGORITHMS = ("rls", "oea", "muea")

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
        for name, (has_type, type_name) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not has_type(value):
                raise ConfigError(f"{name}: must be {type_name}, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not self.n_values:
            raise ConfigError("n_values: must not be empty")
        if any(n < 2 for n in self.n_values):
            raise ConfigError(f"n_values: all n must be >= 2, got {self.n_values}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if not 0 < self.budget_mult < math.inf:
            raise ConfigError(f"budget_mult: must be finite and > 0, got {self.budget_mult}")
        if self.delta <= 0:
            raise ConfigError(f"delta: must be > 0, got {self.delta}")
        if self.mu_values is not None and len(self.mu_values) != len(self.n_values):
            raise ConfigError("mu_values: must match n_values in length")
        if self.mu_values is not None and any(m < 1 for m in self.mu_values):
            raise ConfigError(f"mu_values: all mu must be >= 1, got {self.mu_values}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers: must be >= 1 (or None for all cores), got {self.workers}")
        for n, budget in zip(self.n_values, self.budgets()):
            if budget < 1:
                raise ConfigError(
                    f"budget_mult: {self.budget_mult} gives a budget of {budget} "
                    f"generations at n={n}; it must be >= 1"
                )

    def resolved_mu(self) -> list[int]:
        if self.algorithm != "muea":
            return [1] * len(self.n_values)
        if self.mu_values is not None:
            return list(self.mu_values)
        return [min_population(n, self.delta) for n in self.n_values]

    def budgets(self) -> list[int]:
        """Generation budget per grid point: the default budget times budget_mult."""
        if self.algorithm == "muea":
            return [int(default_budget_alg2(n, mu) * self.budget_mult)
                    for n, mu in zip(self.n_values, self.resolved_mu())]
        return [int(default_budget_alg1(n) * self.budget_mult) for n in self.n_values]


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

    def wilson95(self) -> tuple[float, float]:
        return wilson_interval(self.opt_count, self.trials, 0.95)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    points: list[PointResult] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    z = _stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the boundary endpoints are exactly 0 and 1; keep them free of rounding
    lo = 0.0 if successes == 0 else max(0.0, float(center - half))
    hi = 1.0 if successes == trials else min(1.0, float(center + half))
    return (lo, hi)


def _trial_stream(master_seed: int, point_index: int, trial: int) -> RandomStream:
    return RandomStream(master_seed, (point_index << 32) | trial)


def _run_trial(
    algorithm: str, n: int, mu: int, budget: int, master_seed: int, point_index: int,
    early_exit: bool, trial: int,
) -> tuple[OutcomeKind, int] | str:
    """One trial on its own stream: ``(kind, generation)``, or the message if it raised."""
    rng = _trial_stream(master_seed, point_index, trial)
    try:
        if algorithm == "muea":
            result = run_alg2(n, mu, budget, rng, early_exit)
        else:
            kind = MutationKind.ONE_BIT if algorithm == "rls" else MutationKind.BITWISE
            result = run_alg1(n, kind, budget, rng, early_exit)
    except Exception as exc:  # noqa: BLE001 - a bad trial must not kill the batch
        return str(exc)
    return result.kind, result.generation  # a third of a TrialOutcome's pickle


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all grid points; bit-identical reports for identical configs."""
    config.validate()
    report = ExperimentReport(config=config)
    workers = config.workers or os.cpu_count() or 1
    chunk = math.ceil(config.trials / (4 * workers))
    pool = None
    if workers > 1 and config.trials > 1:
        # the fork start method launches all max_workers processes at the first submit
        pool = ProcessPoolExecutor(max_workers=min(workers, math.ceil(config.trials / chunk)))
    with pool or contextlib.nullcontext():
        map_trials = map if pool is None else functools.partial(pool.map, chunksize=chunk)
        points = zip(config.n_values, config.resolved_mu(), config.budgets())
        for point_index, (n, mu, budget) in enumerate(points):
            run_trial = functools.partial(
                _run_trial, config.algorithm, n, mu, budget, config.master_seed,
                point_index, config.early_exit,
            )
            outcomes = map_trials(run_trial, range(config.trials))  # in trial order
            report.points.append(_aggregate(config, n, mu, outcomes))
    return report


def _aggregate(
    config: ExperimentConfig, n: int, mu: int,
    outcomes: Iterable[tuple[OutcomeKind, int] | str],
) -> PointResult:
    counts = dict.fromkeys(OutcomeKind, 0)
    failed = 0
    opt_gens: list[int] = []
    for outcome in outcomes:
        if isinstance(outcome, str):
            failed += 1
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
        bound = theorem2_bound(n, mu, config.delta).value
    else:
        bound = theorem1_bound(n).value
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
        points.append(d)
    return {"config": asdict(report.config), "points": points}


def write_report(report: ExperimentReport, path: str, format: str = "csv") -> None:
    """Write the report as CSV (fixed column set) or an equivalent JSON object."""
    try:
        if format == "csv":
            with open(path, "w") as fh:
                fh.write(report_csv(report))
        elif format == "json":
            with open(path, "w") as fh:
                json.dump(report_json_obj(report), fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


@dataclass
class ScalingRow:
    n: int
    mu: int
    cond_mean_gens: float
    ratio: float | None  # mean / (mu * n); None when no successful trials


@dataclass
class ScalingTable:
    rows: list[ScalingRow]
    flagged: bool  # True when max ratio / min ratio exceeds 2


def runtime_scaling_check(report: ExperimentReport) -> ScalingTable:
    """Check that conditional mean generations grow like mu*n across the sweep."""
    if len(report.points) < 2:
        raise ValueError("scaling check needs results for at least 2 values of n")
    rows = []
    ratios = []
    for p in report.points:
        if p.opt_count >= 2 and not math.isnan(p.cond_mean_gens):
            ratio = p.cond_mean_gens / (p.mu * p.n)
            ratios.append(ratio)
        else:
            ratio = None
        rows.append(ScalingRow(p.n, p.mu, p.cond_mean_gens, ratio))
    if len(ratios) < 2:
        raise ValueError("scaling check needs >= 2 points with successful trials")
    flagged = max(ratios) / min(ratios) > 2.0
    return ScalingTable(rows=rows, flagged=flagged)
