"""Command-line entry points and exit codes."""

import json

import pytest

from tlonemax.acceptance import CriterionResult
from tlonemax.cli import main


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

    def test_budget_below_one_exits_one(self, capsys):
        for alg in ("oea", "muea"):
            assert main(["run", "--alg", alg, "--n", "6", "--trials", "10",
                         "--workers", "1", "--budget-mult", "1e-9"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: budget_mult:" in captured.err

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TLONEMAX_OUT", str(tmp_path))
        assert main(["run", "--alg", "rls", "--n", "4", "--trials", "5",
                     "--workers", "1", "--out", "report.csv"]) == 0
        assert (tmp_path / "report.csv").exists()


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


class TestTableCommands:
    def test_oracle_table(self, capsys):
        assert main(["oracle", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,a,value,lower_bound"
        assert len(lines) == 5  # a = 1..4
        assert lines[1].startswith("4,1,1,")  # single zero: certain single gain

    def test_markov_table_json(self, capsys):
        assert main(["markov", "--n", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        states = {row["state"] for row in rows}
        assert states == {"p_optimum", "p_event_i", "p_event_ii", "p_failure"}

    def test_markov_lumped_beyond_full_limit(self, capsys):
        assert main(["markov", "--n", "40", "--lumped"]) == 0
        assert main(["markov", "--n", "40"]) == 1  # full chain refuses n > 10

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,mu,bound,value,vacuous"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "769" for line in lines[1:])


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

    def test_unknown_criterion_exits_one(self, capsys):
        assert main(["check", "--criteria", "11"]) == 1
