"""Command-line entry points and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import tlonemax
from tlonemax import (
    MutationKind,
    cli,
    harness,
    markov_full_absorption,
    markov_lumped_absorption,
    wilson_interval,
)
from tlonemax.acceptance import CriterionResult, run_criteria
from tlonemax.cli import main
from tlonemax.oracle import h1_log, h2_log

_HUGE = "1" + "0" * 400  # 10**400, far past the largest float


class TestRunCommand:
    def test_writes_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run", "--alg", "rls", "--n", "5", "--trials", "50",
                     "--seed", "3", "--workers", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algorithm,n,mu,")
        assert lines[1].startswith("rls,5,1,50,")

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["run", "--alg", "oea", "--n", "4", "--trials", "20",
                     "--workers", "1"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("algorithm,n,mu,")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": "rls", "n_values": [4],
                                      "trials": 500, "workers": 1}))
        assert main(["run", "--config", str(config), "--trials", "10"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[3] == "10"  # the flag wins over the file

    def test_invalid_config_exits_one(self, capsys):
        assert main(["run", "--alg", "rls", "--n", "1", "--trials", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_field_type_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": "rls", "n_values": [4],
                                      "trials": "5", "workers": 1}))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: trials: " in captured.err

    def test_config_file_not_an_object_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: config: must be a JSON object" in captured.err

    def test_bad_workers_exits_one(self, capsys):
        for workers in ("0", "-2"):
            assert main(["run", "--alg", "rls", "--n", "4", "--trials", "5",
                         "--workers", workers]) == 1
            assert "error: workers:" in capsys.readouterr().err

    def test_process_count_above_cap_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", None)  # no process may start
        for command in ("run", "sweep"):
            assert main([command, "--alg", "rls", "--n", "4", "--trials", "5000",
                         "--workers", "5000"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("error: workers: 5000 trials would start 5000 worker processes, "
                    "above the limit of 1024") in captured.err

    def test_budget_below_one_exits_one(self, capsys):
        for alg in ("oea", "muea"):
            assert main(["run", "--alg", alg, "--n", "6", "--trials", "10",
                         "--workers", "1", "--budget-mult", "1e-9"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: budget_mult:" in captured.err

    # each of these overflowed the float budget arithmetic with a traceback
    @pytest.mark.parametrize("argv, field", [
        (["--alg", "oea", "--n", "6", "--budget-mult", "1e308"], "budget_mult"),
        (["--alg", "oea", "--n", _HUGE], "n_values"),
        (["--config", "huge_mu.json"], "mu_values"),
    ])
    def test_budget_too_large_for_a_float_exits_one(
        self, argv, field, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge_mu.json").write_text(
            f'{{"algorithm": "muea", "n_values": [6], "mu_values": [{_HUGE}]}}')
        assert main(["run", *argv, "--trials", "3", "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")
        assert "\n" not in captured.err[:-1]  # one line, no traceback

    # 10**400 trials overflowed the float pool sizing with a traceback; the
    # seed was taken modulo 2**64, so -1 ran the trials of 2**64 - 1
    @pytest.mark.parametrize("argv, field", [
        (["--trials", _HUGE], "trials"), (["--seed", "-1"], "master_seed"),
    ])
    def test_stream_key_out_of_range_exits_one(self, argv, field, capsys):
        assert main(["run", "--alg", "rls", "--n", "6", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")
        assert "\n" not in captured.err[:-1]

    def test_huge_worker_count_runs_one_process_per_trial(self, monkeypatch, capsys):
        # the float chunk 2 / (4 * 10**330) was 0, and the pool sizing divided by it
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        assert main(["run", "--alg", "rls", "--n", "6", "--trials", "2",
                     "--workers", "1" + "0" * 330]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("rls,6,1,2,")
        assert sizes == [2]

    def test_population_above_one_gib_exits_one(self, monkeypatch, capsys):
        def run_alg2(*args):
            raise AssertionError("the population was allocated")

        monkeypatch.setattr(harness, "run_alg2", run_alg2)
        for argv, field in ((["--mu", "5263441"], "mu_values"), (["--delta", "1e5"], "delta")):
            assert main(["run", "--alg", "muea", "--n", "6", *argv, "--trials", "1",
                         "--workers", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {field}: a population of mu=")

    def test_trial_that_raises_exits_three(self, monkeypatch, capsys):
        def run_alg1(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness, "run_alg1", run_alg1)
        assert main(["run", "--alg", "rls", "--n", "5", "--trials", "10",
                     "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("rls,5,1,10,0,0,0,0,")  # still written
        assert captured.err == "error: 10 trial(s) raised; first: RuntimeError: injected\n"

    def test_unwritable_path_has_context(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        assert main(["run", "--alg", "rls", "--n", "4", "--trials", "5",
                     "--workers", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_bad_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alg", "rls", "--n", "4", "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TLONEMAX_OUT", str(tmp_path))
        assert main(["run", "--alg", "rls", "--n", "4", "--trials", "5",
                     "--workers", "1", "--out", "report.csv"]) == 0
        assert (tmp_path / "report.csv").exists()

    def test_json_report_without_successes_is_valid_json(self, capsys):
        # no trial of this point reaches the optimum, so its conditional
        # generation statistics are undefined: null in JSON, never NaN
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["run", "--alg", "oea", "--n", "60", "--trials", "4", "--seed", "1",
                     "--workers", "1", "--format", "json"]) == 0
        point = json.loads(capsys.readouterr().out, parse_constant=reject)["points"][0]
        assert point["opt_count"] == 0
        assert point["cond_mean_gens"] is None and point["cond_var_gens"] is None

    def test_float_maximum_delta_gives_valid_json(self, capsys):
        # the theorem bound was nan, so the report was not JSON and the run exited 1
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["run", "--alg", "muea", "--n", "6", "--mu", "3", "--trials", "4",
                     "--delta", "1e308", "--workers", "1", "--format", "json"]) == 0
        point = json.loads(capsys.readouterr().out, parse_constant=reject)["points"][0]
        assert point["theorem_bound"] == 1 - 5 * math.exp(-0.75) - 12 * math.exp(-math.sqrt(6) / 20)

    def test_mu_for_single_individual_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": "rls", "n_values": [6], "mu_values": [5]}))
        for argv in (["run", "--alg", "oea", "--n", "6", "--mu", "5"],
                     ["run", "--config", str(config)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: mu_values: ")

    def test_non_finite_delta_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"algorithm": "muea", "n_values": [6], "delta": Infinity}')
        for argv in (["run", "--alg", "muea", "--n", "6", "--delta", "inf"],
                     ["run", "--alg", "muea", "--n", "6", "--delta", "nan"],
                     ["run", "--config", str(config)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: delta: must be finite and > 0, got ")


class _Captured(Exception):
    pass


def _parsed_config(monkeypatch, argv):
    """The ExperimentConfig that ``main(argv)`` hands to ``run_experiment``."""
    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured) as exc:
        main(argv)
    return exc.value.args[0]


class TestExperimentFlags:
    def test_every_flag_lands_in_its_field(self, monkeypatch):
        config = _parsed_config(monkeypatch, [
            "run", "--alg", "muea", "--n", "5,7", "--mu", "3,4", "--delta", "0.5",
            "--trials", "17", "--budget-mult", "2.5", "--seed", "11", "--no-early-exit",
            "--workers", "2",
        ])
        assert dataclasses.asdict(config) == {
            "algorithm": "muea", "n_values": [5, 7], "mu_values": [3, 4], "delta": 0.5,
            "trials": 17, "budget_mult": 2.5, "master_seed": 11, "early_exit": False,
            "workers": 2,
        }

    def test_early_exit_without_the_flag(self, monkeypatch, tmp_path):
        assert _parsed_config(monkeypatch, ["run", "--alg", "rls", "--n", "5"]).early_exit
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": "rls", "n_values": [5, 6], "early_exit": False}))
        assert not _parsed_config(monkeypatch, ["sweep", "--config", str(config)]).early_exit


class TestSweepCommand:
    def test_requires_multiple_n(self, capsys):
        assert main(["sweep", "--alg", "rls", "--n", "5", "--trials", "5"]) == 1

    def test_population_sweep_prints_scaling(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--alg", "muea", "--n", "4,6", "--mu", "20,30",
                     "--trials", "10", "--workers", "1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3
        err = capsys.readouterr().err
        assert "scaling" in err

    def test_undefined_scaling_table_exits_zero(self, capsys):
        # one-slot populations rarely succeed, so no point has the two
        # successful trials a ratio needs
        assert main(["sweep", "--alg", "muea", "--n", "4,6", "--mu", "1,1",
                     "--trials", "5", "--seed", "1", "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert captured.err == (
            "# scaling: scaling check needs >= 2 points with successful trials\n")

    def test_initial_population_successes_exit_zero(self, capsys):
        # every trial finds the optimum in its initial population, so each
        # point's mean is 0 and it has no ratio
        assert main(["sweep", "--alg", "muea", "--n", "5,6", "--trials", "4",
                     "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert captured.err == (
            "# scaling: scaling check needs >= 2 points with successful trials\n")


# `tlonemax bounds --n 2,10,118,119,20551,1000000`, below its header line
_BOUNDS_GUARANTEED = (
    "2,110,theorem1_failure_lb,-3.83844,True\n"
    "2,110,theorem2_success_lb,-90.9526,True\n"
    "2,110,theorem3_event_lb,-92.8161,True\n"
    "10,403,theorem1_failure_lb,-5.70534,True\n"
    "10,403,theorem2_success_lb,-133.109,True\n"
    "10,403,theorem3_event_lb,-141.647,True\n"
    "118,4358,theorem1_failure_lb,-19.3423,True\n"
    "118,4358,theorem2_success_lb,-137.099,True\n"
    "118,4358,theorem3_event_lb,-205.648,True\n"
    "119,4394,theorem1_failure_lb,-19.4046,True\n"
    "119,4394,theorem2_success_lb,-137.944,True\n"
    "119,4394,theorem3_event_lb,-206.915,True\n"
    "20551,752602,theorem1_failure_lb,4.66753e-05,False\n"
    "20551,752602,theorem2_success_lb,-31.69,True\n"
    "20551,752602,theorem3_event_lb,-47.535,True\n"
    "1000000,36619419,theorem1_failure_lb,0.962817,False\n"
    "1000000,36619419,theorem2_success_lb,4.99659e-13,False\n"
    "1000000,36619419,theorem3_event_lb,4.99466e-13,False\n"
)
# the same with `--mu 5`
_BOUNDS_MU_5 = (
    "2,5,theorem1_failure_lb,-3.83844,True\n"
    "2,5,theorem2_success_lb,-9.17853,True\n"
    "2,5,theorem3_event_lb,-11.042,True\n"
    "10,5,theorem1_failure_lb,-5.70534,True\n"
    "10,5,theorem2_success_lb,-19.0806,True\n"
    "10,5,theorem3_event_lb,-27.6181,True\n"
    "118,5,theorem1_failure_lb,-19.3423,True\n"
    "118,5,theorem2_success_lb,-137.098,True\n"
    "118,5,theorem3_event_lb,-205.646,True\n"
    "119,5,theorem1_failure_lb,-19.4046,True\n"
    "119,5,theorem2_success_lb,-137.942,True\n"
    "119,5,theorem3_event_lb,-206.913,True\n"
    "20551,5,theorem1_failure_lb,4.66753e-05,False\n"
    "20551,5,theorem2_success_lb,-31.69,True\n"
    "20551,5,theorem3_event_lb,-47.535,True\n"
    "1000000,5,theorem1_failure_lb,0.962817,False\n"
    "1000000,5,theorem2_success_lb,4.99659e-13,False\n"
    "1000000,5,theorem3_event_lb,4.99466e-13,False\n"
)


class TestTableCommands:
    def test_oracle_table(self, capsys):
        assert main(["oracle", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,a,value,lower_bound"
        assert len(lines) == 5  # a = 1..4
        assert lines[1].startswith("4,1,1,")  # single zero: certain single gain

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_oracle_n_below_two_exits_one(self, n, capsys):
        assert main(["oracle", "--n", f"4,{n}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n must be >= 2, got {n}\n"

    def test_markov_table_json(self, capsys):
        assert main(["markov", "--n", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        states = {row["state"] for row in rows}
        assert states == {"p_optimum", "p_event_i", "p_event_ii", "p_failure"}

    def test_table_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("TLONEMAX_OUT", str(out_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["markov", "--n", "4", "--out", "rel.csv"]) == 0
        assert capsys.readouterr().out == ""
        assert (out_dir / "rel.csv").read_text().startswith("n,state,value\n")
        assert not (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("kind", [k.value for k in MutationKind])
    def test_markov_prints_the_full_chain_to_n_10(self, kind, capsys):
        # the lumped chain that markov solves prints the full chain's digits
        rows = []
        for n in range(2, 11):
            result = markov_full_absorption(n, kind)
            values = [*result.from_uniform().items(), ("p_failure", result.failure_probability())]
            rows += [f"{n},{state},{value:.12g}\n" for state, value in values]
        assert main(["markov", "--kind", kind, "--n", "2,3,4,5,6,7,8,9,10"]) == 0
        assert capsys.readouterr().out == "n,state,value\n" + "".join(rows)

    def test_markov_beyond_full_limit(self, capsys):
        assert main(["markov", "--n", "40"]) == 0
        assert main(["markov", "--n", "1001"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: lumped chain limited to 2 <= n <= 1000, got 1001\n")

    @pytest.mark.parametrize("kind, rows", [
        ("bitwise",
         "26,p_optimum,0.00893638575903\n26,p_event_i,0.829353430137\n"
         "26,p_event_ii,0.161710184104\n26,p_failure,0.991063614241\n"
         "400,p_optimum,0.00028368785868\n400,p_event_i,0.839460596852\n"
         "400,p_event_ii,0.16025571529\n400,p_failure,0.999716312141\n"
         "1000,p_optimum,0.000106492759125\n1000,p_event_i,0.839697192649\n"
         "1000,p_event_ii,0.160196314592\n1000,p_failure,0.999893507241\n"),
        ("one_bit",
         "26,p_optimum,0.0377219006662\n26,p_event_i,0.712278099334\n"
         "26,p_event_ii,0.25\n26,p_failure,0.962278099334\n"
         "400,p_optimum,0.002496875\n400,p_event_i,0.747503125\n"
         "400,p_event_ii,0.25\n400,p_failure,0.997503125\n"
         "1000,p_optimum,0.0009995\n1000,p_event_i,0.7490005\n"
         "1000,p_event_ii,0.25\n1000,p_failure,0.9990005\n"),
    ])
    def test_markov_lumped_golden_output(self, kind, rows, capsys):
        # pinned across commits: a change of the lumped kernel or its solver
        # may move per-state values by rounding, but not these printed digits
        assert main(["markov", "--kind", kind, "--n", "26,400,1000"]) == 0
        assert capsys.readouterr().out == "n,state,value\n" + rows

    @pytest.mark.parametrize("argv", [
        ["check", "--criteria", ""], ["markov", "--n", ""], ["bounds", "--n", ""],
        ["oracle", "--n", ","], ["bounds", "--n", "6,,8"], ["run", "--alg", "rls", "--n", "5,"],
    ])
    def test_empty_integer_item_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected comma-separated integers" in captured.err

    # 10**400 overflowed the float bound and budget arithmetic with a traceback
    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "20", "--mu", _HUGE],
        ["run", "--alg", "muea", "--n", "6", "--mu", _HUGE],
        ["sweep", "--alg", "muea", "--n", "6,8", "--mu", f"3,{_HUGE}"],
    ])
    def test_mu_too_large_for_a_float_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --mu: population size must be at most 2**53" in captured.err

    def test_mu_at_float_limit_accepted(self, capsys):
        assert main(["bounds", "--n", "20", "--mu", str(2**53)]) == 0
        assert f"20,{2**53},theorem2_success_lb," in capsys.readouterr().out

    # 10**400 overflowed theorem1_bound's n^(1/3) with a traceback
    @pytest.mark.parametrize("n", [_HUGE, f"20,{2**53 + 1}"], ids=["10**400", "2**53+1"])
    def test_bounds_n_too_large_for_a_float_rejected(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --n: dimension must be at most 2**53" in captured.err

    # 10**400 ran without end while its memory grew
    @pytest.mark.parametrize("n", [_HUGE, "8,1001"], ids=["10**400", "1001"])
    def test_oracle_n_above_cap_rejected(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --n: dimension must be at most 1000" in captured.err

    def test_bounds_n_at_float_limit_accepted(self, capsys):
        assert main(["bounds", "--n", str(2**53), "--mu", "5"]) == 0
        assert f"{2**53},5,theorem1_failure_lb," in capsys.readouterr().out

    def test_bounds_guaranteed_size_too_large_exits_one(self, capsys):
        # the guaranteed size overflowed to inf and round(inf) raised
        assert main(["bounds", "--n", "20", "--delta", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: population size must be at most 2**53, got inf")

    def test_bounds_non_finite_delta_exits_one(self, capsys):
        assert main(["bounds", "--n", "20", "--delta", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delta must be finite and > 0, got inf\n"

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,mu,bound,value,vacuous"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "769" for line in lines[1:])
        # pinned across commits, at the guaranteed size and at a fixed mu
        for mu_args, table in (([], _BOUNDS_GUARANTEED), (["--mu", "5"], _BOUNDS_MU_5)):
            assert main(["bounds", "--n", "2,10,118,119,20551,1000000", *mu_args]) == 0
            assert capsys.readouterr().out == "n,mu,bound,value,vacuous\n" + table

    def test_bounds_at_the_float_maximum_delta(self, capsys):
        # 2 (1 + delta) overflowed and the theorem 2 and 3 rows read nan
        assert main(["bounds", "--n", "20", "--mu", "5", "--delta", "1e308"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith(",True") and "nan" not in row for row in rows)


class TestCheckCommand:
    def test_passing_criteria_exit_zero(self, capsys):
        assert main(["check", "--criteria", "9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS criterion 9:")

    def test_failing_criterion_exits_two(self, monkeypatch, capsys):
        import tlonemax.cli as cli

        monkeypatch.setattr(cli, "run_criteria", lambda numbers=None: [
            CriterionResult(1, "stub", False, "forced failure")])
        assert main(["check"]) == 2
        assert "FAIL criterion 1" in capsys.readouterr().out

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError, match="no criteria selected"):
            run_criteria([])

    def test_unknown_criterion_exits_one(self, capsys):
        assert main(["check", "--criteria", "11"]) == 1


_COLD_START = """
import sys
import tlonemax, tlonemax.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
from tlonemax import ExperimentConfig, run_experiment
from tlonemax.harness import report_csv
report_csv(run_experiment(ExperimentConfig(algorithm="rls", n_values=[5], trials=20, workers=1)))
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
from tlonemax import MutationKind, markov_lumped_absorption, wilson_interval
print(repr(markov_lumped_absorption(8, MutationKind.BITWISE).failure_probability()))
from tlonemax.oracle import h1_log, h2_log
results = [
    wilson_interval(3, 10), wilson_interval(3, 10, 0.99),
    h1_log(2, 5, [1]).tolist(), h2_log(2, 5, [2]).tolist(),
]
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
for result in results:
    print(repr(result))
"""


def test_readme_command_lines_parse():
    """Every ``tlonemax`` command line in README parses, so the docs name no removed flag."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        lines = [line.split("#")[0].split() for line in fh if line.startswith("tlonemax ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_import_loads_no_scipy():
    """No call loads scipy: not the import, an experiment with its report, the
    lumped chain, a Wilson interval at any confidence or the log-space helpers."""
    src = os.path.dirname(os.path.dirname(tlonemax.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        repr(markov_lumped_absorption(8, MutationKind.BITWISE).failure_probability()),
        repr(wilson_interval(3, 10)),
        repr(wilson_interval(3, 10, 0.99)),
        repr(h1_log(2, 5, [1]).tolist()),
        repr(h2_log(2, 5, [2]).tolist()),
    ]
