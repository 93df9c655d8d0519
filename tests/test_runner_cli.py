import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heavyfed import make_config, run, run_experiment, run_repetitions, runner, sweep
from heavyfed.cli import main


def quick_overrides(**extra):
    base = {
        "experiment.rounds": 5,
        "experiment.repetitions": 3,
        "data.devices": 4,
        "data.samples_per_device": 25,
        "data.test_samples": 30,
        "attack.alpha": 0.25,
    }
    base.update(extra)
    return base


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRunRepetitions:
    def test_single_repetition_matches_direct_run(self):
        cfg = make_config(quick_overrides(**{"experiment.repetitions": 1}))
        runs, summary = run_repetitions(cfg)
        direct = run(cfg, rep=0)
        assert runs[0] == direct
        assert summary.final_loss_mean == direct[-1].test_loss
        assert summary.final_loss_std == 0.0
        assert summary.per_round_mean == [rm.test_loss for rm in direct]

    def test_statistics_over_repetitions(self):
        cfg = make_config(quick_overrides())
        runs, summary = run_repetitions(cfg)
        finals = [stream[-1].test_loss for stream in runs]
        assert summary.final_loss_mean == pytest.approx(np.mean(finals))
        assert summary.final_loss_std == pytest.approx(np.std(finals, ddof=1))
        assert summary.completed == [0, 1, 2]
        assert summary.failed == []

    def test_failed_repetition_recorded_not_fatal(self):
        # two byzantine all-1e308 uploads overflow the mean to inf
        cfg = make_config(quick_overrides(**{
            "experiment.algorithm": "baseline",
            "attack.kind": "large_value",
            "attack.strength": 1e308,
            "attack.alpha": 0.45,
            "data.devices": 5,
        }))
        runs, summary = run_repetitions(cfg)
        assert summary.completed == []
        assert [rep for rep, _ in summary.failed] == [0, 1, 2]
        assert summary.final_loss_mean is None

    def test_per_round_std_equals_one_std_per_round_bit_for_bit(self):
        # one np.std over the contiguous (rounds, reps) rows gives the bytes of
        # one np.std per round; np.std(losses, axis=0) adds in another order
        rng = np.random.default_rng(25)
        for _ in range(400):
            reps, rounds = int(rng.integers(2, 25)), int(rng.integers(1, 40))
            losses = rng.lognormal(0.0, rng.uniform(0.1, 3.0), size=(reps, rounds))
            per_round = [float(np.std(losses[:, j], ddof=1)) for j in range(rounds)]
            assert runner._std(losses.T) == per_round
        assert runner._std(np.ones((3, 1))) == [0.0, 0.0, 0.0]


class TestRunExperiment:
    def test_writes_contract_files(self, tmp_path):
        cfg = make_config(quick_overrides())
        summary = run_experiment(cfg, tmp_path)
        rows = read_csv(tmp_path / "rounds.csv")
        assert rows[0] == ["rep", "round", "test_loss", "param_err", "bytes_up"]
        assert len(rows) == 1 + 3 * 6  # header + reps * (rounds + initial row)
        record = json.loads((tmp_path / "summary.json-lines").read_text().strip())
        assert record["digest"] == summary.digest
        assert record["final_loss_mean"] == summary.final_loss_mean

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = make_config(quick_overrides())
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == (tmp_path / "b" / "rounds.csv").read_bytes()

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = make_config(quick_overrides())
        summary = run_experiment(cfg, tmp_path)
        rows = read_csv(tmp_path / "rounds.csv")[1:]
        finals = {}
        for rep, rnd, loss, _err, _bytes in rows:
            finals[int(rep)] = (int(rnd), float(loss))
        last = [loss for _, (rnd, loss) in sorted(finals.items())]
        assert summary.final_loss_mean == pytest.approx(np.mean(last))
        assert summary.final_loss_std == pytest.approx(np.std(last, ddof=1))
        by_round = {}
        for rep, rnd, loss, _err, _bytes in rows:
            by_round.setdefault(int(rnd), []).append(float(loss))
        for rnd, values in by_round.items():
            assert summary.per_round_mean[rnd] == pytest.approx(np.mean(values))

    def test_param_err_column_empty_for_csv_source(self, tmp_path):
        data = tmp_path / "data.csv"
        rows = ["a,b,y"]
        rng = np.random.default_rng(0)
        for _ in range(60):
            x1, x2 = rng.standard_normal(2)
            rows.append(f"{x1},{x2},{x1 + 2 * x2 + 0.1 * rng.standard_normal()}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = make_config({
            "experiment.rounds": 3,
            "experiment.repetitions": 1,
            "data.source": "csv",
            "data.path": str(data),
            "data.label_column": "y",
            "data.devices": 5,
            "data.test_samples": 10,
            "estimator.v": 1.0,
        })
        run_experiment(cfg, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "rounds.csv")
        assert all(row[3] == "" for row in rows[1:])


class TestSweep:
    def test_one_summary_per_value(self, tmp_path):
        cfg = make_config(quick_overrides(**{"aggregator.beta": 0.25}))
        summaries = sweep(cfg, "alpha", [0.0, 0.25], tmp_path)
        assert [s.axis_value for s in summaries] == [0.0, 0.25]
        rows = read_csv(tmp_path / "rounds.csv")
        assert rows[0] == ["alpha", "rep", "round", "test_loss", "param_err", "bytes_up"]
        assert {row[0] for row in rows[1:]} == {"0.0", "0.25"}
        lines = (tmp_path / "summary.json-lines").read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["axis"] == "alpha"

    def test_an_auto_value_is_recorded_as_auto(self, tmp_path):
        summaries = sweep(make_config(quick_overrides()), "experiment.eta", ["auto", 0.05], tmp_path)
        assert [s.axis_value for s in summaries] == ["auto", 0.05]
        assert {row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]} == {"auto", "0.05"}

    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = make_config(quick_overrides())
        (summary,) = sweep(cfg, "alpha", [0.25], tmp_path / "s")
        direct = run_experiment(cfg, tmp_path / "r")
        assert summary.final_loss_mean == direct.final_loss_mean
        assert summary.total_bytes == direct.total_bytes


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nrounds = 4\nrepetitions = 2\n"
            "[data]\ndevices = 4\nsamples_per_device = 25\ntest_samples = 20\n"
            "[attack]\nalpha = 0.25\n" + extra,
            encoding="utf-8",
        )
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rounds = 4" in out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[attack]\nalpha = 0.7\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "alpha must be < 0.5" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "rounds.csv").is_file()
        assert (out_dir / "summary.json-lines").is_file()
        assert "final_loss_mean=" in capsys.readouterr().out

    def test_run_refuses_a_non_finite_number(self, tmp_path, capsys):
        path = tmp_path / "nan.ini"
        path.write_text("[data]\nnoise_sigma = nan\n", encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: data.noise_sigma" in capsys.readouterr().err

    def test_run_refuses_noise_of_infinite_variance_with_an_explicit_v(self, tmp_path, capsys):
        path = tmp_path / "noise.ini"
        path.write_text("[data]\nnoise_mu = 800\n[estimator]\nv = 1\n", encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: data.noise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, names",
        [
            ("a,b\n1,2\n", "label column 'y'"),
            ("a,y\n1,2\n3,oops\n", "row 3, column 'y'"),
            (None, "data.csv: cannot open: No such file or directory"),
            ("a,y,a\n1,2,3\n", "header names column 'a' more than once"),
        ],
        ids=["missing_column", "non_numeric_cell", "missing_file", "repeated_header"],
    )
    def test_run_reports_a_data_error_in_one_line(self, tmp_path, capsys, table, names):
        # validate does not read the data, so the error first shows at run time
        data = tmp_path / "data.csv"
        if table is not None:
            data.write_text(table, encoding="utf-8")
        path = tmp_path / "csv.ini"
        path.write_text(
            "[experiment]\nrounds = 2\nrepetitions = 1\n"
            f"[data]\nsource = csv\npath = {data}\nlabel_column = y\ndevices = 1\ntest_samples = 1\n"
            "[estimator]\nv = 1\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        # neither run nor a sweep whose first value fails leaves a directory behind
        out = str(tmp_path / "out")
        for command in (["run"], ["sweep", "--axis", "alpha", "--values", "0"]):
            assert main([*command, str(path), "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and names in err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    def test_sweep_command(self, tmp_path, capsys):
        path = self.write_config(tmp_path, extra="[aggregator]\nbeta = 0.25\n")
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--axis", "alpha", "--values", "0.0,0.25", "--out", str(out_dir)]) == 0
        rows = read_csv(out_dir / "rounds.csv")
        assert rows[0][0] == "alpha"

    def test_sweep_any_key(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        command = ["sweep", str(path), "--axis", "data.noise", "--values", "lognormal,pareto", "--out", str(out_dir)]
        assert main(command) == 0
        rows = read_csv(out_dir / "rounds.csv")
        assert rows[0] == ["data.noise", "rep", "round", "test_loss", "param_err", "bytes_up"]
        assert [row[0] for row in rows[1:]] == ["lognormal"] * 10 + ["pareto"] * 10  # 2 reps of rounds 0-4

    @pytest.mark.parametrize(
        "axis, values, names",
        [
            ("m", "10.5", "sweep.m: expected an integer, got '10.5'"),
            ("alpha", "0.1,x", "attack.alpha: expected a number, got 'x'"),
            ("data.noise", "cauchy", "data.noise: must be one of"),
            ("gamma", "1", "sweep.axis: unknown axis 'gamma'"),
        ],
        ids=["count", "alias", "key", "unknown_axis"],
    )
    def test_sweep_refuses_a_bad_value_or_axis_in_one_line(self, tmp_path, capsys, axis, values, names):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--axis", axis, "--values", values, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {names}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_sweep_refuses_an_axis_its_points_do_not_read(self, tmp_path, capsys):
        path = self.write_config(tmp_path)  # lognormal noise reads no shape
        out_dir = tmp_path / "sweep"
        command = ["sweep", str(path), "--axis", "data.noise_shape", "--values", "2.5,4", "--out", str(out_dir)]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: sweep.data.noise_shape: data.noise_shape=2.5 sets data.noise_shape, "
            "which the run does not read\n"
        )
        assert not out_dir.exists()

    def test_sweep_without_values(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--axis", "alpha", "--values", ",", "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "config error: values: no axis values given\n"
        assert not out_dir.exists()

    def test_sweep_invalid_value(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["sweep", str(path), "--axis", "N", "--values", "1001"]) == 1
        assert "divisible" in capsys.readouterr().err

    def test_sweep_checks_every_value_before_its_first_run(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--axis", "m", "--values", "4,33", "--out", str(out_dir)]) == 1
        assert "N=100 is not divisible by m=33" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_all_diverged_exit_code(self, tmp_path, capsys):
        # baseline mean under an overflowing attack diverges in every repetition
        path = tmp_path / "div.ini"
        path.write_text(
            "[experiment]\nalgorithm = baseline\nrounds = 4\nrepetitions = 2\n"
            "[data]\ndevices = 5\nsamples_per_device = 25\ntest_samples = 20\n"
            "[attack]\nkind = large_value\nstrength = 1e308\nalpha = 0.45\n",
            encoding="utf-8",
        )
        assert main(["run", str(path), "--out", str(tmp_path / "d")]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/exp.ini"]) == 1

    @pytest.mark.parametrize(
        "args, text, status, err",
        [
            (["validate", "exp.ini"], "", 0, None),
            (["validate", "exp.ini"], "[estimator]\ns = 1\ntau = 1e200\n", 1, "config error: estimator.tau: "),
            (
                ["run", "exp.ini", "--out", "out"],
                "[data]\nsource = csv\npath = nolabel.csv\nlabel_column = y\n[estimator]\nv = 1\n",
                1,
                "error: ",
            ),
        ],
        ids=["empty_config", "config_error", "data_error"],
    )
    def test_the_module_exits_with_its_status_and_no_traceback(self, tmp_path, args, text, status, err):
        # what a call of main in this process cannot see: the exit status of
        # `python -m heavyfed.cli` and a stderr free of any traceback
        (tmp_path / "exp.ini").write_text(text, encoding="utf-8")
        (tmp_path / "nolabel.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        src = str(Path(runner.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "heavyfed.cli", *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == status
        if err is None:
            assert done.stderr == "" and done.stdout.startswith("[experiment]\n")
            return
        assert done.stderr.startswith(err) and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()
