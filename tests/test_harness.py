"""Experiment configs, aggregation, report files, and the scaling check."""

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from tlonemax import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    runtime_scaling_check,
    wilson_interval,
)
from tlonemax import harness
from tlonemax.harness import ConfigError, PointResult, report_csv, report_json_obj


_CSV_HEADER_TEXT = (
    "algorithm,n,mu,trials,opt_count,eventI_count,eventII_count,budget_count,"
    "success_rate,wilson95_lo,wilson95_hi,cond_mean_gens,cond_var_gens,"
    "theorem_bound,seed"
)


def _small_config(**overrides):
    fields = dict(algorithm="rls", n_values=[5], trials=300, master_seed=99, workers=1)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _point(**overrides):
    fields = dict(
        algorithm="muea", n=10, mu=100, trials=10, opt_count=8, event_i_count=1,
        event_ii_count=0, budget_count=1, failed_count=0, cond_mean_gens=500.0,
        cond_var_gens=10.0, theorem_bound=-1.0, seed=0,
    )
    fields.update(overrides)
    return PointResult(**fields)


class TestWilsonInterval:
    def test_zero_successes_touch_zero(self):
        lo, hi = wilson_interval(0, 10, 0.95)
        assert lo == 0.0 and 0.0 < hi < 0.5

    def test_all_successes_touch_one(self):
        lo, hi = wilson_interval(10, 10, 0.95)
        assert hi == 1.0 and 0.5 < lo < 1.0

    def test_contains_point_estimate(self):
        for successes, trials in ((5, 10), (1, 100), (97, 100)):
            lo, hi = wilson_interval(successes, trials, 0.95)
            assert lo <= successes / trials <= hi

    def test_wider_at_higher_confidence(self):
        lo95, hi95 = wilson_interval(40, 100, 0.95)
        lo99, hi99 = wilson_interval(40, 100, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, 1.0)


class TestConfigValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            _small_config(algorithm="annealing").validate()

    def test_bad_n(self):
        with pytest.raises(ConfigError, match="n_values"):
            _small_config(n_values=[5, 1]).validate()
        with pytest.raises(ConfigError, match="n_values"):
            _small_config(n_values=[]).validate()

    def test_bad_trials_budget_delta(self):
        with pytest.raises(ConfigError, match="trials"):
            _small_config(trials=0).validate()
        for budget_mult in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="budget_mult"):
                _small_config(budget_mult=budget_mult).validate()
        with pytest.raises(ConfigError, match="delta"):
            _small_config(delta=-1.0).validate()

    def test_field_types(self):
        bad = {
            "algorithm": [5, None],
            "n_values": [6, (6,), [6.5], ["6"], [True], None],
            "mu_values": [4, [4.0]],
            "delta": ["0.1", True, None],
            "trials": ["5", 5.0, True, None],
            "budget_mult": ["1", False],
            "master_seed": ["0", 1.5, False, None],
            "early_exit": [1, "yes", None],
            "workers": ["2", 2.0, True],
        }
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ConfigError, match=f"^{name}: must be "):
                    _small_config(**{name: value}).validate()
        assert set(bad) == set(ExperimentConfig.__dataclass_fields__)

    def test_mu_values_must_align(self):
        with pytest.raises(ConfigError, match="mu_values"):
            _small_config(algorithm="muea", mu_values=[3, 4]).validate()
        with pytest.raises(ConfigError, match="mu_values"):
            _small_config(algorithm="muea", mu_values=[0]).validate()

    def test_mu_resolution_uses_guaranteed_size(self):
        config = _small_config(algorithm="muea", n_values=[20], mu_values=None)
        assert config.resolved_mu() == [769]
        config = _small_config(algorithm="muea", n_values=[20], mu_values=[5])
        assert config.resolved_mu() == [5]
        assert _small_config(algorithm="rls").resolved_mu() == [1]

    def test_bad_workers(self):
        for workers in (0, -2):
            with pytest.raises(ConfigError, match="workers"):
                _small_config(workers=workers).validate()
        _small_config(workers=None).validate()  # None means one per core

    def test_budget_below_one_rejected(self):
        # default budgets: 100 n^2 = 3600 at n=6 for alg1, 100 mu n = 800 at n=8, mu=1
        with pytest.raises(ConfigError, match="budget_mult"):
            _small_config(algorithm="oea", n_values=[6], budget_mult=1e-9).validate()
        with pytest.raises(ConfigError, match="budget_mult"):
            _small_config(algorithm="muea", n_values=[8], mu_values=[1],
                          budget_mult=1e-3).validate()
        _small_config(algorithm="oea", n_values=[6], budget_mult=3e-4).validate()  # budget 1

    def test_budgets_scale_the_defaults(self):
        assert _small_config(n_values=[5, 10], budget_mult=0.5).budgets() == [1250, 5000]
        config = _small_config(algorithm="muea", n_values=[4, 6], mu_values=[3, 7])
        assert config.budgets() == [1200, 4200]


class TestRunExperiment:
    def test_outcome_partition(self):
        report = run_experiment(_small_config())
        point = report.points[0]
        assert (point.opt_count + point.event_i_count + point.event_ii_count
                + point.budget_count + point.failed_count) == point.trials
        assert 0.0 <= point.success_rate <= 1.0
        lo, hi = point.wilson95()
        assert lo <= point.success_rate <= hi

    def test_worker_count_does_not_change_bytes(self):
        csvs = []
        for workers in (1, 3):
            report = run_experiment(_small_config(n_values=[5, 7], workers=workers))
            csvs.append(report_csv(report))
        assert csvs[0] == csvs[1]

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))  # never fork 64

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        report = run_experiment(_small_config(n_values=[5, 7], trials=2, workers=64))
        assert sizes == [2]  # one pool for both points, one process per one-trial chunk
        assert [p.trials for p in report.points] == [2, 2]

    def test_trial_that_raises_is_counted_failed(self, monkeypatch):
        real_run_alg1 = harness.run_alg1
        calls = []

        def run_alg1(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return real_run_alg1(*args)

        monkeypatch.setattr(harness, "run_alg1", run_alg1)
        report = run_experiment(_small_config(trials=10))
        point = report.points[0]
        assert point.failed_count == 1 and len(calls) == 10
        assert (point.opt_count + point.event_i_count + point.event_ii_count
                + point.budget_count) == 9
        assert report.errors == ["RuntimeError: injected"]
        assert report_csv(report).splitlines()[1].startswith("rls,5,1,10,")

    def test_rerun_is_bit_identical(self):
        a = report_csv(run_experiment(_small_config()))
        b = report_csv(run_experiment(_small_config()))
        assert a == b

    def test_different_seed_changes_counts(self):
        a = run_experiment(_small_config(master_seed=1)).points[0]
        b = run_experiment(_small_config(master_seed=2)).points[0]
        assert (a.opt_count, a.event_i_count, a.event_ii_count) != (
            b.opt_count, b.event_i_count, b.event_ii_count)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(_small_config(trials=0))

    def test_golden_report_bytes(self):
        # Pinned across commits: a refactor must keep these bytes, and only an
        # intentional change of the engines' draw order may update them.  The
        # oea n=40 point draws flip counts of 3 or more (Floyd subsets beyond
        # two draws); the muea point reaches the optimum, event I and the budget.
        golden = [
            (dict(algorithm="rls", n_values=[6], trials=2000),
             "rls,6,1,2000,354,1143,503,0,0.177,0.160897,0.194342,11.1299,42.6667,"
             "-4.63365,20240901\n"),
            (dict(algorithm="oea", n_values=[6, 40], trials=500),
             "oea,6,1,500,42,378,80,0,0.084,0.0627441,0.111599,13.3095,108.69,"
             "-4.63365,20240901\n"
             "oea,40,1,500,4,418,78,0,0.008,0.00311532,0.020387,303.5,1927.25,"
             "-11.7388,20240901\n"),
            (dict(algorithm="muea", n_values=[8], mu_values=[4], trials=200),
             "muea,8,4,200,149,30,0,21,0.745,0.680371,0.800395,76.4161,1744.86,"
             "-16.0973,20240901\n"),
        ]
        for fields, rows in golden:
            config = ExperimentConfig(master_seed=20240901, workers=1, **fields)
            assert report_csv(run_experiment(config)) == _CSV_HEADER_TEXT + "\n" + rows

    def test_population_point(self):
        report = run_experiment(_small_config(algorithm="muea", n_values=[5],
                                              mu_values=[30], trials=20))
        point = report.points[0]
        assert point.mu == 30
        assert point.opt_count == 20  # a generous population at n=5 always succeeds
        assert not math.isnan(point.cond_mean_gens)


class TestReportFiles:
    def test_csv_header_and_roundtrip(self):
        report = run_experiment(_small_config())
        text = report_csv(report)
        header = _CSV_HEADER_TEXT
        assert text.count(header) == 1 and text.startswith(header)
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 1
        point = report.points[0]
        assert int(rows[0]["opt_count"]) == point.opt_count
        assert float(rows[0]["success_rate"]) == pytest.approx(point.success_rate, rel=1e-5)

    def test_json_mirrors_csv_fields(self):
        report = run_experiment(_small_config())
        data = json.loads(json.dumps(report_json_obj(report)))
        assert data["config"]["algorithm"] == "rls"
        point = data["points"][0]
        for key in ("opt_count", "success_rate", "wilson95_lo", "cond_mean_gens", "seed"):
            assert key in point

    def test_six_significant_digits(self):
        report = run_experiment(_small_config(trials=3))
        line = report_csv(report).splitlines()[1]
        rate_field = line.split(",")[8]
        assert len(rate_field.replace(".", "").replace("-", "").lstrip("0")) <= 6


class TestScalingCheck:
    def _report(self, points):
        config = _small_config(algorithm="muea", n_values=[p.n for p in points])
        return ExperimentReport(config=config, points=points)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            runtime_scaling_check(self._report([_point()]))

    def test_flat_ratios_unflagged(self):
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            _point(n=20, mu=200, cond_mean_gens=2200.0),
        ])
        table = runtime_scaling_check(report)
        assert not table.flagged
        assert table.rows[0].ratio == pytest.approx(0.5)
        assert table.rows[1].ratio == pytest.approx(0.55)

    def test_wide_ratios_flagged(self):
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            _point(n=20, mu=200, cond_mean_gens=5000.0),
        ])
        assert runtime_scaling_check(report).flagged

    def test_zero_success_point_omitted(self):
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            _point(n=20, mu=200, cond_mean_gens=2000.0),
            _point(n=40, mu=400, opt_count=0, cond_mean_gens=float("nan")),
        ])
        table = runtime_scaling_check(report)
        assert table.rows[2].ratio is None
        assert len(table.rows) == 3

    def test_too_few_successful_points_rejected(self):
        report = self._report([
            _point(n=10, opt_count=0, cond_mean_gens=float("nan")),
            _point(n=20, opt_count=1),
        ])
        with pytest.raises(ValueError, match="successful"):
            runtime_scaling_check(report)
