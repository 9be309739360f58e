"""Experiment configs, aggregation, report files, and the scaling check."""

import csv
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from statistics import NormalDist

import pytest
from scipy import stats

from tlonemax import (
    ExperimentConfig,
    ExperimentReport,
    OutcomeKind,
    RandomStream,
    run_alg1,
    run_alg2,
    run_experiment,
    runtime_scaling_check,
    wilson_interval,
)
from tlonemax import harness
from tlonemax.harness import (
    MAX_WORKERS, SCALING_GATE, ConfigError, PointResult, report_csv, report_json_obj,
)


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

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 1 - 1e-6])
    def test_equals_norm_ppf_reference(self, confidence):
        p = 1.0 - (1.0 - confidence) / 2.0
        z = NormalDist().inv_cdf(p)
        # the stdlib quantile sits 0 to 3 ulp below scipy's correctly rounded one
        reference = stats.norm.ppf(p)
        assert abs(z - reference) <= 4 * math.ulp(reference)
        for successes, trials in ((0, 7), (1, 3), (3, 10), (40, 100), (999, 1000), (12, 12)):
            phat = successes / trials
            denom = 1.0 + z * z / trials
            center = (phat + z * z / (2 * trials)) / denom
            half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
            lo = 0.0 if successes == 0 else max(0.0, center - half)
            hi = 1.0 if successes == trials else min(1.0, center + half)
            assert wilson_interval(successes, trials, confidence) == (lo, hi)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, 1.0)
        # the quantile's argument rounds to 1 here, so z would be infinite
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(5, 10, 1 - 2**-53)


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

    def test_stream_key_ranges(self):
        # trial 2**32 of point 0 would reuse the stream of trial 0 of point 1,
        # and the seed is taken modulo 2**64
        _small_config(trials=2**32).validate()
        _small_config(master_seed=2**64 - 1).validate()
        with pytest.raises(ConfigError, match=r"^trials: must be in \[1, 2\*\*32\], got 4294967297$"):
            _small_config(trials=2**32 + 1).validate()
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=r"^master_seed: must be in \[0, 2\*\*64\), got "):
                _small_config(master_seed=seed).validate()

    def test_non_finite_delta(self):
        for delta in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="delta: must be finite and > 0"):
                _small_config(algorithm="muea", delta=delta).validate()

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

    def test_process_count_capped(self, monkeypatch):
        # validation alone decides: no pool may be built for a rejected config
        monkeypatch.setattr(harness, "ProcessPoolExecutor", None)
        config = _small_config(trials=5000, workers=MAX_WORKERS)
        assert config._pool_size()[1] == MAX_WORKERS
        config.validate()
        _small_config(trials=MAX_WORKERS, workers=10**330).validate()  # one process per trial
        for trials, workers in ((5000, MAX_WORKERS + 1), (5000, 5000), (MAX_WORKERS + 1, 10**330)):
            config = _small_config(trials=trials, workers=workers)
            processes = config._pool_size()[1]
            assert processes > MAX_WORKERS
            with pytest.raises(ConfigError, match=rf"^workers: {trials} trials would start "
                                                  rf"{processes} worker processes, above the "
                                                  rf"limit of {MAX_WORKERS}$"):
                config.validate()
            with pytest.raises(ConfigError, match="^workers: "):
                run_experiment(config)
        # the default, one process per core, is the machine's own size
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 5000)
        config = _small_config(trials=5000, workers=None)
        assert config._pool_size()[1] == 5000
        config.validate()

    def test_budget_below_one_rejected(self):
        # default budgets: 100 n^2 = 3600 at n=6 for alg1, 100 mu n = 800 at n=8, mu=1
        with pytest.raises(ConfigError, match="budget_mult"):
            _small_config(algorithm="oea", n_values=[6], budget_mult=1e-9).validate()
        with pytest.raises(ConfigError, match="budget_mult"):
            _small_config(algorithm="muea", n_values=[8], mu_values=[1],
                          budget_mult=1e-3).validate()
        _small_config(algorithm="oea", n_values=[6], budget_mult=3e-4).validate()  # budget 1

    def test_budget_too_large_for_a_float_rejected(self):
        # validate passed these, and the run then sized a population of 10**302
        # or converted an infinite budget to int
        with pytest.raises(ConfigError, match=r"^delta: population size must be at most 2\*\*53"):
            _small_config(algorithm="muea", n_values=[6], delta=1e300).validate()
        with pytest.raises(ConfigError, match=r"^budget_mult: 1e\+308 gives a budget of inf "):
            _small_config(algorithm="muea", n_values=[6], budget_mult=1e308).validate()
        for name in ("n_values", "mu_values"):
            config = _small_config(algorithm="muea", n_values=[6], mu_values=[5])
            setattr(config, name, [2**53 + 1])
            with pytest.raises(ConfigError, match=rf"^{name}: all .* must be in \[\d, 2\*\*53\]"):
                config.validate()
        with pytest.raises(ConfigError, match=rf"^mu_values: a population of mu={2**53} at n=6 "):
            _small_config(algorithm="muea", n_values=[6], mu_values=[2**53]).validate()

    def test_population_above_one_gib_rejected(self, monkeypatch):
        def run_alg2(*args):
            raise AssertionError("the population was allocated")

        monkeypatch.setattr(harness, "run_alg2", run_alg2)
        # a slot is charged 200 + 4 bytes up to n=30, so 1 GiB holds 5 263 440 of them
        _small_config(algorithm="muea", n_values=[6], mu_values=[5_263_440]).validate()
        with pytest.raises(ConfigError, match=r"^mu_values: a population of mu=5263441 at n=6 "):
            run_experiment(_small_config(algorithm="muea", n_values=[6], mu_values=[5_263_441]))
        # the guaranteed size is 256.3 (1 + delta) at n=6
        with pytest.raises(ConfigError, match=r"^delta: a population of mu=25633824 at n=6 "):
            run_experiment(_small_config(algorithm="muea", n_values=[6], delta=1e5))
        # the criteria's largest population, the guaranteed size at n=80, takes
        # about 0.6 MB: a thousand worker processes could hold one each
        config = _small_config(algorithm="muea", n_values=[80], trials=1000, workers=1000)
        assert config.resolved_mu() == [2966] and config._pool_size() == (1, 1000)
        config.validate()
        # two trials on two workers hold two populations at once
        config = _small_config(algorithm="muea", n_values=[6], mu_values=[2_631_721],
                               trials=2, workers=2)
        with pytest.raises(ConfigError, match=r"^mu_values: a population of mu=2631721 at n=6 "
                                              r"would take about \d+ bytes in each of 2 "):
            run_experiment(config)
        _small_config(algorithm="muea", n_values=[6], mu_values=[2_631_720],
                      trials=2, workers=2).validate()
        # one worker runs the trials one after the other, so the point runs
        config.workers = 1
        report = run_experiment(config)
        assert len(report.errors) == 2 and "the population was allocated" in report.errors[0]

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
        for fields in [
            dict(n_values=[5, 7]),
            # chunks of 7 at 2 workers and of 5 at 3 straddle the two points
            dict(n_values=[5, 7], trials=50),
            # 25 trials: chunks of 4 at 2 workers and of 3 at 3, neither divides 25
            dict(algorithm="muea", n_values=[5, 6], mu_values=[4, 4], trials=25),
        ]:
            texts = []
            for workers in (1, 2, 3):
                report = run_experiment(_small_config(workers=workers, **fields))
                texts.append((report_csv(report),
                              json.dumps(report_json_obj(report), indent=2, allow_nan=False)))
            assert texts[0] == texts[1] == texts[2], fields

    @pytest.mark.parametrize("fields", [
        dict(n_values=[5, 7], trials=50),
        dict(algorithm="muea", n_values=[5, 6], mu_values=[4, 4], trials=25),
    ], ids=["rls", "muea"])
    def test_trials_replay_from_their_stream_keys(self, fields):
        # trial t of point p draws from RandomStream(seed, p << 32 | t), whatever
        # the order the pool runs it in; the benchmark's traced replay rebuilds it
        config = _small_config(workers=2, **fields)
        report = run_experiment(config)
        grid = zip(config.n_values, config.resolved_mu(), config.budgets(), report.points)
        for point, (n, mu, budget, result) in enumerate(grid):
            counts = Counter()
            for trial in range(config.trials):
                rng = RandomStream(config.master_seed, (point << 32) | trial)
                if config.algorithm == "muea":
                    counts[run_alg2(n, mu, budget, rng, config.early_exit).kind] += 1
                else:
                    mutation = harness.MUTATION[config.algorithm]
                    counts[run_alg1(n, mutation, budget, rng, config.early_exit).kind] += 1
            assert [counts[kind] for kind in OutcomeKind] == [
                result.opt_count, result.event_i_count, result.event_ii_count,
                result.budget_count]

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        sizes, chunks = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))  # never fork 64

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        report = run_experiment(_small_config(n_values=[5, 7], trials=2, workers=64))
        assert sizes == [2]  # one pool for both points, one process per one-trial chunk
        assert chunks == [1]  # one map over the whole (point, trial) grid
        assert [p.trials for p in report.points] == [2, 2]

    @pytest.mark.parametrize("trials, workers, sizes", [
        (10_000, 2, (1250, 2)), (1000, 2, (125, 2)), (6, 2, (1, 2)), (2, 2, (1, 2)),
        (50, 2, (7, 2)), (100_000, 1, (25_000, 1)), (100_000, 4, (6250, 4)), (100, 4, (7, 4)),
        # the float quotient 2 / (4 * 10**330) was 0, a zero chunk
        pytest.param(2, 10**330, (1, 2), id="2-10**330-(1, 2)"),
    ])
    def test_pool_size_in_integers(self, trials, workers, sizes):
        assert _small_config(trials=trials, workers=workers)._pool_size() == sizes

    def test_trial_that_raises_is_counted_failed(self, monkeypatch):
        real_run_alg1 = harness.run_alg1
        calls = []
        raising_call = 0

        def run_alg1(*args):
            calls.append(args)
            if len(calls) == raising_call:
                raise RuntimeError("injected")
            return real_run_alg1(*args)

        monkeypatch.setattr(harness, "run_alg1", run_alg1)
        # the 13th call is trial 2 of the second point, which must be charged with it
        for n_values, raising_call, failed in [([5], 3, [1]), ([5, 7], 13, [0, 1])]:
            calls.clear()
            report = run_experiment(_small_config(n_values=n_values, trials=10))
            assert [p.failed_count for p in report.points] == failed
            assert len(calls) == 10 * len(n_values)
            for point in report.points:
                assert (point.opt_count + point.event_i_count + point.event_ii_count
                        + point.budget_count + point.failed_count) == 10
            assert report.errors == ["RuntimeError: injected"]
            rows = report_csv(report).splitlines()[1:]
            assert all(row.startswith(f"rls,{n},1,10,")
                       for row, n in zip(rows, n_values, strict=True))

    def test_trial_that_raises_leaves_the_others_unchanged(self, monkeypatch):
        # each process re-keys one stream per trial, so a trial that raises
        # part-way through its draws must leave nothing for the next trial
        args = ("oea", 20240901, True, [(6, 1, harness.default_budget_alg1(6))], 10)
        clean = [harness._run_trial(*args, t) for t in range(10)]
        real_run_alg1 = harness.run_alg1
        calls = []

        def run_alg1(n, kind, budget, rng, early_exit):
            calls.append(n)
            if len(calls) == 4:  # trial 3
                rng.random_bits(300)
                rng.next_flip_count(n, 1.0 / n)
                rng.next_flip_count(150, 0.5)  # rejection sampling
                assert rng.generator.bit_generator.state["buffer_pos"] < 4  # buffer part-used
                raise RuntimeError("injected")
            return real_run_alg1(n, kind, budget, rng, early_exit)

        monkeypatch.setattr(harness, "run_alg1", run_alg1)
        outcomes = [harness._run_trial(*args, t) for t in range(10)]
        assert outcomes[3] == "RuntimeError: injected"
        assert outcomes[:3] + outcomes[4:] == clean[:3] + clean[4:]

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
        # two draws); the mu=4 muea point reaches the optimum, event I and the
        # budget, and the mu=2 point also ends in event II.
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
            (dict(algorithm="muea", n_values=[8], mu_values=[2], trials=200),
             "muea,8,2,200,63,98,14,25,0.315,0.254623,0.38235,42.6349,766.994,"
             "-15.3615,20240901\n"),
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
        assert runtime_scaling_check(report) <= SCALING_GATE
        assert report.points[0].runtime_ratio == pytest.approx(0.5)
        assert report.points[1].runtime_ratio == pytest.approx(0.55)

    def test_wide_ratios_flagged(self):
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            _point(n=20, mu=200, cond_mean_gens=5000.0),
        ])
        assert runtime_scaling_check(report) > SCALING_GATE

    def test_zero_success_point_omitted(self):
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            _point(n=20, mu=200, cond_mean_gens=2000.0),
            _point(n=40, mu=400, opt_count=0, cond_mean_gens=float("nan")),
        ])
        assert runtime_scaling_check(report) == pytest.approx(1.0)
        assert report.points[2].runtime_ratio is None

    def test_initial_population_successes_have_no_ratio(self):
        # every success found the optimum at generation 0: a mean of 0, no climb
        zero = _point(n=20, mu=200, opt_count=5, cond_mean_gens=0.0, cond_var_gens=0.0)
        assert zero.runtime_ratio is None
        report = self._report([_point(n=10, mu=100, cond_mean_gens=500.0), zero])
        with pytest.raises(ValueError, match="successful"):
            runtime_scaling_check(report)
        report = self._report([
            _point(n=10, mu=100, cond_mean_gens=500.0),
            zero,
            _point(n=40, mu=400, cond_mean_gens=12000.0),
        ])
        assert runtime_scaling_check(report) == pytest.approx(1.5)

    def test_too_few_successful_points_rejected(self):
        report = self._report([
            _point(n=10, opt_count=0, cond_mean_gens=float("nan")),
            _point(n=20, opt_count=1),
        ])
        with pytest.raises(ValueError, match="successful"):
            runtime_scaling_check(report)
