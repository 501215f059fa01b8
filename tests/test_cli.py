import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import datamarket
from datamarket import cli, csvio, taxi_scenario_path
from datamarket.cli import cli_main

SCENARIO = """M = 300
k = 0.5
gamma = 1
N = 100
a = 0.4944
b = 0.0079
q = 50
tau = 180
seed = 5
trials = 10
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO, encoding="utf-8")
    return str(path)


def lines_of(text):
    return dict(
        line.split(" = ", 1) for line in text.strip().splitlines() if " = " in line
    )


class TestFit:
    def test_writes_coefficients(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text(
            "q,performance\n1,0.4944\n10,0.512589\n100,0.530781\n", encoding="utf-8"
        )
        out = tmp_path / "curve.txt"
        assert cli_main(["fit", "--points", str(points), "--out", str(out)]) == 0
        report = lines_of(out.read_text(encoding="utf-8"))
        assert float(report["a"]) == pytest.approx(0.4944, abs=1e-4)
        assert float(report["b"]) == pytest.approx(0.0079, abs=1e-5)
        assert float(report["rmse"]) < 1e-5
        assert report["n_points"] == "3"

    def test_prints_to_stdout_without_out(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("q,performance\n1,0.49\n100,0.53\n", encoding="utf-8")
        assert cli_main(["fit", "--points", str(points)]) == 0
        assert "a = " in capsys.readouterr().out

    def test_nonpositive_slope_warns_on_stderr(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("q,performance\n1,0.6\n100,0.4\n", encoding="utf-8")
        assert cli_main(["fit", "--points", str(points)]) == 0
        assert "not positive" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, reason", [
        ("5,0.5\n5,0.6\n", "need at least 2 distinct data sizes to identify a slope"),
        ("5,0.5\n", "need at least 2 experiment points, got 1"),
    ])
    def test_unfittable_points_name_their_file(self, tmp_path, rows, reason, capsys):
        points = tmp_path / "points.csv"
        points.write_text("q,performance\n" + rows, encoding="utf-8")
        assert cli_main(["fit", "--points", str(points)]) == 1
        assert capsys.readouterr().err == f"error: {points}: {reason}\n"

    def test_header_only_file_is_an_error_without_a_warning(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("q,performance\n", encoding="utf-8")
        assert cli_main(["fit", "--points", str(points)]) == 1
        assert capsys.readouterr().err == (
            f"error: {points}: no data rows after the header\n")


class TestMetric:
    def test_reports_rate(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("y_true,y_pred\n600,630\n600,850\n600,595\n", encoding="utf-8")
        assert cli_main(["metric", "--predictions", str(preds), "--tau", "60"]) == 0
        report = lines_of(capsys.readouterr().out)
        assert float(report["satisfaction_rate"]) == pytest.approx(2 / 3, abs=1e-6)
        assert report["n_records"] == "3"

    @pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
    def test_bad_tau_names_its_flag_before_the_file_is_read(self, tmp_path, tau, capsys):
        missing = tmp_path / "missing.csv"
        assert cli_main(["metric", "--predictions", str(missing), "--tau", tau]) == 1
        assert capsys.readouterr().err == (
            f"error: --tau: must be positive and finite, got {float(tau)}\n")


class TestAuction:
    def test_allocation_table_and_summary(self, tmp_path, scenario_file, capsys):
        bids = tmp_path / "bids.csv"
        bids.write_text("customer_id,bid\nalice,0.6\nbob,0.3\ncarol,0.1\n", encoding="utf-8")
        assert cli_main(["auction", "--bids", str(bids), "--config", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "customer_id,bid,allocation,payment" in out
        assert "alice,0.6,1,0.262652" in out
        assert "bob,0.3,1,0.262652" in out
        assert "carol,0.1,0,0" in out
        summary = lines_of(out)
        assert summary["winners"] == "2"
        assert float(summary["gross_profit"]) == pytest.approx(-24.4747, abs=1e-3)

    def test_table_goes_to_file_with_out(self, tmp_path, scenario_file, capsys):
        bids = tmp_path / "bids.csv"
        bids.write_text("customer_id,bid\nalice,0.6\n", encoding="utf-8")
        table = tmp_path / "table.csv"
        code = cli_main(
            ["auction", "--bids", str(bids), "--config", scenario_file, "--out", str(table)]
        )
        assert code == 0
        assert table.read_text(encoding="utf-8").startswith("customer_id,bid,")
        assert "threshold_price" in capsys.readouterr().out

    def test_requires_q_in_scenario(self, tmp_path, capsys):
        config = tmp_path / "noq.cfg"
        config.write_text(SCENARIO.replace("q = 50\n", ""), encoding="utf-8")
        bids = tmp_path / "bids.csv"
        bids.write_text("customer_id,bid\nalice,0.6\n", encoding="utf-8")
        assert cli_main(["auction", "--bids", str(bids), "--config", str(config)]) == 1
        assert f"error: {config}: scenario field q:" in capsys.readouterr().err


# the auction table as csv.writer writes the paper's posted-price sale of each
# row: a bid at or over the price s/2 wins and pays it, any other pays 0
SUPPORT = datamarket.parse_scenario(SCENARIO).model().support_max
PRICE = SUPPORT / 2
# ids that csv.writer quotes, and bids at the price, beside it and above the support
IDS = st.text(st.sampled_from('a7 ,"\r\né'), min_size=1, max_size=4)
BIDS = st.one_of(
    st.sampled_from([0.0, PRICE, math.nextafter(PRICE, 0.0), math.nextafter(PRICE, 2.0),
                     SUPPORT, 2 * SUPPORT]),
    st.floats(0.0, 3 * SUPPORT))


def auction_table(rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["customer_id", "bid", "allocation", "payment"])
    for cid, bid in rows:
        wins = bid >= PRICE
        writer.writerow([cid, csvio.format_sig(bid), int(wins),
                         csvio.format_sig(PRICE if wins else 0.0)])
    return text.getvalue().encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(rows=[("a", 0.0)])
@example(rows=[("a", PRICE)])
@example(rows=[("a", 0.1), ("b", 0.2), ("c", 0.0)])
@example(rows=[("a", PRICE), ("b", 2 * SUPPORT), ("c", SUPPORT)])
@example(rows=[("a,b", PRICE), ('"', 0.0), ("\r", 1.0), ("\n", 0.25), ("\r\n", PRICE)])
@example(rows=[("a", 1.0), ("b", 0.0)])
@given(rows=st.lists(st.tuples(IDS, BIDS), min_size=1, max_size=12,
                     unique_by=lambda row: row[0]))
def test_auction_table_is_csv_writers(tmp_path, scenario_file, rows):
    bids, table = tmp_path / "bids.csv", tmp_path / "table.csv"
    with open(bids, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer_id", "bid"])
        writer.writerows((cid, repr(bid)) for cid, bid in rows)
    argv = ["auction", "--bids", str(bids), "--config", scenario_file, "--out", str(table)]
    with redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    assert table.read_bytes() == auction_table(rows)


class TestColumnPath:
    """auction, fit and metric run the array cores on the columns the readers
    return: a valid file is not read again row by row."""

    FILES = {  # a blank line in each; a file holding a '"' goes to the row reader
        "bids.csv": ("customer_id,bid\nalice,0.6\n\nbob,0.3\ncarol,0.1\n",
                     csvio.read_bids),
        "points.csv": ("q,performance\n1,0.49\n\n20,0.518\n100,0.531\n",
                       csvio.read_experiment_points),
        "preds.csv": ("y_true,y_pred\n600,630\n\n600,850\n540,720\n",
                      csvio.read_predictions),
    }

    @pytest.fixture
    def row_reads(self, monkeypatch):
        """The files the row reader reads while the test runs."""
        paths = []

        def counting(path, *args, read=csvio._read_records):
            paths.append(Path(path).name)
            return read(path, *args)

        monkeypatch.setattr(csvio, "_read_records", counting)
        return paths

    @pytest.fixture
    def files(self, tmp_path):
        for name, (text, _) in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path

    def test_valid_files_are_not_read_row_by_row(self, files, scenario_file, row_reads,
                                                 capsys):
        for argv in (["auction", "--bids", "bids.csv", "--config", scenario_file],
                     ["fit", "--points", "points.csv"],
                     ["metric", "--predictions", "preds.csv", "--tau", "60"]):
            argv = [str(files / arg) if arg.endswith(".csv") else arg for arg in argv]
            assert cli_main(argv) == 0, capsys.readouterr().err
        assert row_reads == []
        assert "\r\nbob,0.3,1," in capsys.readouterr().out

    def test_reader_length_is_the_row_count(self, files, row_reads):
        for name, (_, reader) in self.FILES.items():
            assert len(reader(files / name)) == 3
        assert row_reads == []

    @pytest.fixture
    def rows_read(self, monkeypatch):
        """The rows each row reader call returns while the test runs."""
        counts = []

        def counting(*args, read=csvio._read_records):
            rows, lines, fault = read(*args)
            counts.append(len(rows))
            return rows, lines, fault

        monkeypatch.setattr(csvio, "_read_records", counting)
        return counts

    # the C pass names the first faulty row n; only rows 0..n are read again,
    # for their lines, and a repeated id's message still names its first line
    @pytest.mark.parametrize("n, row, error", [
        (0, "c0,-1", "bid: must be non-negative and finite, got -1.0"),
        (7, "c7,-1", "bid: must be non-negative and finite, got -1.0"),
        (1, "c0,1", "duplicate customer_id 'c0', first on line 2"),
        (40, "c3,1", "duplicate customer_id 'c3', first on line 5"),
    ])
    def test_a_refused_file_is_read_again_up_to_its_first_fault(self, tmp_path,
                                                               rows_read, n, row, error):
        rows = [f"c{i},1" for i in range(50)]
        rows[n] = row
        path = tmp_path / "bids.csv"
        path.write_text("customer_id,bid\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            csvio.read_bids(path)
        assert str(info.value) == f"{path}:{n + 2}: {error}"
        assert rows_read == [n + 1]

    def test_rows_only_the_c_pass_refuses_are_all_read_again(self, files, rows_read,
                                                              monkeypatch):
        # where the two parsers part, the row reader's rows up to the C pass's
        # fault pass the check, so it reads every row and its table is taken
        loadtxt = np.loadtxt

        def parting(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            table["bid"][1] = -1.0
            return table

        monkeypatch.setattr(np, "loadtxt", parting)
        assert csvio.read_bids(files / "bids.csv")["bid"].tolist() == [0.6, 0.3, 0.1]
        assert rows_read == [2, 3]

    def test_a_refused_file_is_read_again_row_by_row(self, files, row_reads):
        # the counting hook sees the row path, so the tests above can fail
        path = files / "bids.csv"
        path.write_text("customer_id,bid\nalice,0.6\nbob,-1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bids\.csv:3: bid: must be non-negative"):
            csvio.read_bids(path)
        assert row_reads == ["bids.csv"]


class TestOptimize:
    def test_reports_optimum(self, scenario_file, capsys):
        assert cli_main(["optimize", "--config", scenario_file]) == 0
        report = lines_of(capsys.readouterr().out)
        # M=300: q* = 300*0.0079/2 = 1.185
        assert float(report["q_star"]) == pytest.approx(1.185, abs=1e-4)
        assert report["rejected"] == "false"

    def test_reports_rejection(self, tmp_path, capsys):
        config = tmp_path / "reject.cfg"
        config.write_text(
            "M = 10\nk = 1\ngamma = 1\nN = 100\na = 0.001\nb = 0.01\n", encoding="utf-8"
        )
        assert cli_main(["optimize", "--config", str(config)]) == 0
        report = lines_of(capsys.readouterr().out)
        assert report["rejected"] == "true"
        assert report["q_star"] == "0"


class TestSimulate:
    def test_summary_lines(self, scenario_file, capsys):
        assert cli_main(["simulate", "--config", scenario_file]) == 0
        report = lines_of(capsys.readouterr().out)
        assert report["M"] == "300"
        assert report["trials"] == "10"
        assert report["within_three_se"] in ("true", "false")

    def test_deterministic_output_bytes(self, scenario_file, capsys):
        assert cli_main(["simulate", "--config", scenario_file]) == 0
        first = capsys.readouterr().out
        assert cli_main(["simulate", "--config", scenario_file]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["sweep", "--param", "q", "--lo", "1", "--hi", "100", "--steps", "3"],
    ], ids=("simulate", "sweep"))
    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "must be >= 0, got -1"),
        ("--trials", "0", "must be >= 1, got 0"),
    ], ids=("seed", "trials"))
    def test_bad_override_names_its_flag(self, scenario_file, capsys, command, flag,
                                         value, message):
        assert cli_main([*command, "--config", scenario_file, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: {message}\n"

    def test_seed_override_changes_output(self, scenario_file, capsys):
        assert cli_main(["simulate", "--config", scenario_file, "--seed", "99"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["simulate", "--config", scenario_file]) == 0
        assert capsys.readouterr().out != first

    def test_a_run_at_the_draw_and_trial_bounds_is_taken(self, tmp_path):
        # M x trials = MAX_DRAWS and trials = MAX_TRIALS: one row, checked
        # without running it; one trial more is refused
        config = tmp_path / "bound.cfg"
        config.write_text(SCENARIO.replace("M = 300", "M = 100"), encoding="utf-8")
        parser = cli.build_parser()
        args = parser.parse_args(["simulate", "--config", str(config),
                                  "--trials", "1000000"])
        assert cli._monte_carlo_config(args).trials == 10**6
        args.trials += 1
        with pytest.raises(ValueError, match=r"^--trials: "):
            cli._monte_carlo_config(args)


class TestSweep:
    @pytest.mark.parametrize("steps, err", [
        ("1", "error: --steps: need at least 2 grid points, got 1\n"),
        ("2", ""),
    ])
    def test_fewer_than_two_steps_names_its_flag(self, scenario_file, steps, err, capsys):
        argv = ["sweep", "--config", scenario_file, "--param", "q", "--lo", "1",
                "--hi", "100", "--steps", steps, "--trials", "2"]
        assert cli_main(argv) == (1 if err else 0)
        assert capsys.readouterr().err == err

    def test_csv_written(self, tmp_path, scenario_file):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "sweep", "--config", scenario_file, "--param", "q",
                "--lo", "1", "--hi", "100", "--steps", "10",
                "--trials", "2", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "value,expected_profit,optimal_price,optimal_q,empirical_mean,empirical_std"
        assert len(lines) == 11

    def test_identical_seeds_give_identical_files(self, tmp_path, scenario_file):
        args = [
            "sweep", "--config", scenario_file, "--param", "price",
            "--lo", "0", "--hi", "0.5", "--steps", "7", "--trials", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_by_default(self, scenario_file, capsys):
        code = cli_main(
            ["sweep", "--config", scenario_file, "--param", "gamma",
             "--lo", "0.5", "--hi", "2", "--steps", "4", "--trials", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("value,")

    def test_price_past_the_float_range_warns_nothing(self, capsys):
        # price / support_max overflows at 1e308; the valuation CDF clips it to 1
        argv = ["sweep", "--config", str(taxi_scenario_path()), "--param", "price",
                "--lo", "0", "--hi", "1e308", "--steps", "3"]
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "value,expected_profit,optimal_price,optimal_q,empirical_mean,empirical_std\r\n"
            "0,-25,0.262652,39.5,-25,0\r\n"
            "5e+307,-25,0.262652,39.5,-25,0\r\n"
            "1e+308,-25,0.262652,39.5,-25,0\r\n")


    @pytest.mark.parametrize("argv, named, message", [
        # q* overflows before any row, on the scenario alone
        (["--param", "q", "--lo", "1", "--hi", "50"], True,
         "expected profit overflows at data size 100.0: "),
        # a flag puts the grid past the scenario's N
        (["--param", "q", "--lo", "1", "--hi", "101"], False,
         "q sweep must stay within (0, 100.0], got [1.0, 101.0]"),
        # the second row's gamma, 5e307, overflows; the scenario's does not matter
        (["--param", "gamma", "--lo", "1", "--hi", "1e308"], False,
         "gamma = 5e+307 (row 2 of 3): expected profit overflows at data size "),
        (["--param", "price", "--lo", "-1", "--hi", "1"], False,
         "price sweep needs lo >= 0, got -1.0"),
    ], ids=("q-star", "q-grid", "gamma-row", "price-lo"))
    def test_only_the_scenarios_own_faults_name_its_file(self, tmp_path, argv, named,
                                                         message, capsys):
        config = tmp_path / "huge.cfg"
        config.write_text(taxi_scenario_path().read_text(encoding="utf-8")
                          .replace("gamma = 1\n", "gamma = 1e308\n"), encoding="utf-8")
        code = cli_main(["sweep", "--config", str(config), *argv, "--steps", "3",
                         "--trials", "2"])
        assert code == 1
        prefix = f"error: {config}: " if named else "error: "
        assert capsys.readouterr().err.startswith(prefix + message)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["appraise"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, scenario_file, capsys):
        assert cli_main(["optimize", "--config", scenario_file, "--fast"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli_main(["fit"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli_main(["optimize", "--config", "no/such/file.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        for good, bad, field in (("b = 0.0079", "b = -1", "b"),
                                 ("b = 0.0079", "b = inf", "b"), ("k = 0.5", "k = -1", "k")):
            config.write_text(SCENARIO.replace(good, bad), encoding="utf-8")
            assert cli_main(["optimize", "--config", str(config)]) == 1
            assert f"{config}: scenario field {field}:" in capsys.readouterr().err

    def test_duplicate_bid_id(self, tmp_path, scenario_file, capsys):
        bids = tmp_path / "bids.csv"
        bids.write_text("customer_id,bid\nc1,0.3\nc1,0.1\n", encoding="utf-8")
        assert cli_main(["auction", "--bids", str(bids), "--config", scenario_file]) == 1
        err = capsys.readouterr().err
        assert f"{bids}:3: duplicate customer_id 'c1', first on line 2" in err

    def test_invalid_sweep_parameter(self, scenario_file, capsys):
        code = cli_main(
            ["sweep", "--config", scenario_file, "--param", "price",
             "--lo", "5", "--hi", "1", "--steps", "4"]
        )
        assert code == 1
        assert "lo < hi" in capsys.readouterr().err
        code = cli_main(
            ["sweep", "--config", scenario_file, "--param", "price",
             "--lo", "0", "--hi", "inf", "--steps", "4"]
        )
        assert code == 1
        assert "bound hi" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["optimize"],
        ["simulate", "--trials", "3"],
        ["sweep", "--param", "price", "--lo", "0", "--hi", "1", "--steps", "3"],
        ["sweep", "--param", "gamma", "--lo", "1", "--hi", "1e308", "--steps", "4"],
    ])
    def test_profit_overflow(self, tmp_path, argv, capsys):
        # M * gamma = 3e309 overflows; the gamma sweep reaches it at its second row
        config = tmp_path / "huge.cfg"
        gamma = "1" if "gamma" in argv else "1e307"
        config.write_text(SCENARIO.replace("gamma = 1\n", f"gamma = {gamma}\n"),
                          encoding="utf-8")
        assert cli_main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "inf" not in captured.out
        # the gamma sweep overflows at a row its flags chose, and names that
        # row; only the others, which overflow on the scenario alone, name the file
        named = ("gamma = 3.333333333333333e+307 (row 2 of 4): " if "gamma" in argv
                 else f"{config}: ")
        assert f"error: {named}expected profit overflows" in captured.err

    @pytest.mark.parametrize("argv", [
        ["auction", "--bids", "bids.csv"],
        ["simulate", "--trials", "3"],
        ["sweep", "--param", "price", "--lo", "0", "--hi", "1", "--steps", "3"],
    ])
    def test_data_cost_overflow(self, tmp_path, argv, capsys):
        # k*q = 1e307 * 50 overflows
        config = tmp_path / "huge.cfg"
        config.write_text(SCENARIO.replace("k = 0.5\n", "k = 1e307\n"), encoding="utf-8")
        (tmp_path / "bids.csv").write_text("customer_id,bid\nalice,0.6\n", encoding="utf-8")
        argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv]
        assert cli_main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "inf" not in captured.out
        assert "warning:" not in captured.err
        assert f"error: {config}: data cost k*q" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "3"],
        ["sweep", "--param", "gamma", "--lo", "1", "--hi", "1e303", "--steps", "3",
         "--trials", "3"],
    ])
    def test_monte_carlo_overflow(self, tmp_path, argv, capsys):
        # profits near 4e301 are finite; the squares in their std are not
        config = tmp_path / "huge.cfg"
        config.write_text(SCENARIO.replace("gamma = 1\n", "gamma = 1e300\n"),
                          encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([*argv, "--config", str(config)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "inf" not in captured.out
        named = "gamma = 5e+302 (row 2 of 3): " if argv[0] == "sweep" else f"{config}: "
        assert f"error: {named}Monte-Carlo profit overflows" in captured.err

    @pytest.mark.parametrize("scenario, argv, err", [
        # row 0's Monte-Carlo overflows, though row 1's expected profit does too
        ({}, ["gamma", "1e154", "1e308", "2"], "gamma = 1e+154 (row 1 of 2): "
         "Monte-Carlo profit overflows: mean 1.3272175015954995e+157, std inf"),
        # row 0 counts; row 1's expected profit overflows
        ({}, ["gamma", "1e152", "1e308", "2"], "gamma = 1e+308 (row 2 of 2): expected "
         "profit overflows at data size 100.0: M*gamma*r(q)/4 - k*q = inf"),
        ({}, ["gamma", "1e-3", "1e155", "3"], "gamma = 5e+154 (row 2 of 3): "
         "Monte-Carlo profit overflows: mean 6.628656576154928e+157, std inf"),
        ({"gamma": "1e300"}, ["q", "1", "100", "3"], "q = 1.0 (row 1 of 3): "
         "Monte-Carlo profit overflows: mean 1.2362472000000002e+303, std inf"),
        ({"gamma": "1e300"}, ["price", "0", "1e300", "3"], "price = 5e+299 (row 2 of 3): "
         "Monte-Carlo profit overflows: mean 2.3299999999999997e+302, std inf"),
        ({"gamma": "1e300"}, ["k", "1e-3", "1", "3"], "k = 0.001 (row 1 of 3): "
         "Monte-Carlo profit overflows: mean 1.3272175015954994e+303, std inf"),
        # row 0 counts; row 1's data cost overflows
        ({"k": "1e307"}, ["q", "1", "100", "3"], "q = 50.5 (row 2 of 3): "
         "data cost k*q: must be non-negative and finite, got inf"),
        ({"k": "1e306"}, ["q", "1", "100", "30"], "q = 18.06896551724138 (row 6 of 30): "
         "Monte-Carlo profit overflows: mean -1.806896551724138e+307, std inf"),
        ({"a": "-0.03"}, ["q", "1", "100", "4"], "q = 1.0 (row 1 of 4): "
         "performance at data size 1.0: must be positive and finite, got -0.03"),
    ])
    def test_a_sweep_failing_mid_grid_names_its_first_faulty_row(
            self, tmp_path, scenario, argv, err, capsys):
        # recorded from the row-by-row sweep: the first fault in row order is
        # raised, whether it is a row's analytic column or its Monte-Carlo, and
        # named by the row's parameter, value and position
        config = tmp_path / "mid.cfg"
        text = taxi_scenario_path().read_text(encoding="utf-8")
        for key, value in scenario.items():
            text = text.replace(f"\n{key} = ", f"\n{key} = {value}  # ")
        config.write_text(text, encoding="utf-8")
        param, lo, hi, steps = argv
        assert cli_main(["sweep", "--config", str(config), "--param", param, "--lo", lo,
                         "--hi", hi, "--steps", steps, "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        warning = "warning: performance is negative at data size 1\n"
        assert captured.err == f"{warning if 'a' in scenario else ''}error: {err}\n"

    @pytest.mark.parametrize("argv, scenario, field", [
        (["sweep", "--param", "q", "--lo", "1", "--hi", "100",
          "--steps", "1000000000000000"], {}, "--steps"),
        (["simulate", "--trials", "1000000000000000"], {}, "--trials"),
        (["simulate"], {"trials": "1000000000000000"}, "scenario field trials"),
        (["simulate"], {"M": "1000000000000000"}, "scenario field M"),
        (["sweep", "--param", "k", "--lo", "1", "--hi", "2", "--steps", "3"],
         {"M": "1000000000000000"}, "scenario field M"),
        (["simulate", "--trials", "1000001"], {"M": "1"}, "--trials"),
        (["simulate"], {"M": "1", "trials": "1000001"}, "scenario field trials"),
        (["sweep", "--param", "q", "--lo", "1", "--hi", "100", "--steps", "101",
          "--trials", "10000"], {"M": "1"}, "--steps"),
    ], ids=("steps", "trials-flag", "trials", "M-simulate", "M-sweep",
            "M1-trials-flag", "M1-trials", "M1-steps"))
    def test_draws_over_the_bound_name_their_field(self, tmp_path, argv, scenario,
                                                   field, capsys):
        # 7 PiB of valuations, or 10**6 + 1 trials: refused before any is drawn
        config = tmp_path / "big.cfg"
        text = taxi_scenario_path().read_text(encoding="utf-8")
        for key, value in scenario.items():
            text = text.replace(f"\n{key} = ", f"\n{key} = {value}  # ")
        config.write_text(text, encoding="utf-8")
        assert cli_main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        named = f"{config}: " if field.startswith("scenario") else ""
        if scenario.get("M") == "1":  # one draw a trial: the trial bound refuses it
            product, tail = "trials x rows", " trials, over the limit of 1000000\n"
        else:
            product, tail = "M x trials x rows", " valuation draws, over the limit of 100000000\n"
        assert captured.err.startswith(f"error: {named}{field}: {product} = ")
        assert captured.err.endswith(tail)

    def test_closed_form_takes_any_market_size(self, tmp_path, capsys):
        config = tmp_path / "big.cfg"
        config.write_text(taxi_scenario_path().read_text(encoding="utf-8")
                          .replace("M = 10000", "M = 1000000000000000"), encoding="utf-8")
        assert cli_main(["optimize", "--config", str(config)]) == 0
        assert "rejected = false" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["optimize"], ["simulate"],
        ["sweep", "--param", "k", "--lo", "0.1", "--hi", "1", "--steps", "3"]])
    def test_a_market_size_past_the_float_range_names_M(self, tmp_path, command,
                                                        capsys):
        # an int too large for a float is not finite: exit 1, not an internal error
        M = "1" + "0" * 400
        config = tmp_path / "big.cfg"
        config.write_text(taxi_scenario_path().read_text(encoding="utf-8")
                          .replace("M = 10000", f"M = {M}"), encoding="utf-8")
        assert cli_main([*command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: scenario field M: must be positive and finite, got {M}\n")

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    def test_performance_overflow_names_file_and_field(self, tmp_path, command,
                                                       capsys):
        # a + b*ln(N) with b = 1e308 overflows; the scenario is refused on load
        config = tmp_path / "huge.cfg"
        config.write_text(taxi_scenario_path().read_text(encoding="utf-8")
                          .replace("b = 0.0079", "b = 1e308"), encoding="utf-8")
        assert cli_main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: scenario field b: performance a + b*ln(N) "
            "overflows at N=100.0\n")

    def test_field_over_the_csv_size_limit(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text(f"q,performance\n1,0.5\n{'9' * 131073},0.6\n",
                          encoding="utf-8")
        assert cli_main(["fit", "--points", str(points)]) == 1
        assert capsys.readouterr().err == (
            f"error: {points}:3: field larger than field limit (131072)\n")

    def test_non_utf8_input(self, tmp_path, scenario_file, capsys):
        bids = tmp_path / "bids.csv"
        bids.write_bytes(b"customer_id,bid\nalice,0.6\n\xff\n")
        assert cli_main(["auction", "--bids", str(bids), "--config", scenario_file]) == 1
        assert f"error: {bids}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_internal_error_maps_to_two(self, scenario_file, monkeypatch, capsys):
        def boom(config):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli, "simulate", boom)
        assert cli_main(["simulate", "--config", scenario_file]) == 2
        assert "internal error" in capsys.readouterr().err


class TestOneParser:
    """cli_main parses with one parser a process: a call leaves it as it was,
    and a caller's own parser from build_parser() is its own."""

    def test_a_second_call_builds_no_parser(self, scenario_file, monkeypatch, capsys):
        argv = ["optimize", "--config", scenario_file]
        assert cli_main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert cli_main(argv) == 0
        assert built == []
        assert capsys.readouterr().out.count("q_star = ") == 2

    def test_no_call_carries_state_to_the_next(self, tmp_path, scenario_file, capsys):
        points = tmp_path / "points.csv"
        points.write_text("q,performance\n1,0.49\n100,0.53\n", encoding="utf-8")
        argvs = [[], ["--help"], ["fit", "--points", str(points)],
                 ["optimize", "--config", scenario_file, "--fast"],
                 ["simulate", "--config", scenario_file, "--trials", "2", "--seed", "3"],
                 []]

        def run(argv):
            code = cli_main(argv)
            return (code, *capsys.readouterr())

        shared = [run(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0, 1, 0, 1]

    def test_a_callers_parser_is_its_own(self, scenario_file, capsys):
        mine = cli.build_parser()
        assert cli.build_parser() is not mine
        commands, = (action for action in mine._actions
                     if isinstance(action, argparse._SubParsersAction))
        commands.choices["optimize"].set_defaults(func=lambda args: ({"mine": 1}, None))
        mine.add_argument("--extra")
        assert cli_main(["optimize", "--config", scenario_file]) == 0
        assert "q_star = " in capsys.readouterr().out
        assert cli_main(["--extra", "1", "optimize", "--config", scenario_file]) == 1
        assert "usage" in capsys.readouterr().err


class TestWarnings:
    """cli_main prints each warning once as `warning: <message>`, whatever the
    caller's filters (the suite turns warnings into errors), ahead of any
    error line, and the exit code ignores it."""

    @pytest.fixture
    def negative_taxi(self, tmp_path):
        path = tmp_path / "negative.cfg"
        path.write_text(taxi_scenario_path().read_text(encoding="utf-8")
                        .replace("a = 0.4944", "a = -0.1"), encoding="utf-8")
        return str(path)

    def test_warning_reported_once_per_call(self, negative_taxi, capsys):
        for _ in range(2):
            assert cli_main(["optimize", "--config", negative_taxi]) == 0
            captured = capsys.readouterr()
            assert captured.err == "warning: performance is negative at data size 1\n"
            assert "q_star = " in captured.out

    def test_warning_precedes_error(self, negative_taxi, capsys):
        config = Path(negative_taxi)
        config.write_text(config.read_text(encoding="utf-8").replace("q = 50\n", ""),
                          encoding="utf-8")
        assert cli_main(["simulate", "--config", negative_taxi]) == 1
        assert capsys.readouterr().err == (
            "warning: performance is negative at data size 1\n"
            f"error: {negative_taxi}: scenario field q: required for simulation\n")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(datamarket.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "datamarket.cli", "optimize",
             "--config", str(taxi_scenario_path())],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "q_star = " in proc.stdout


class TestBenchmarkBindings:
    """The benchmark traces layers by rebinding module attributes, and skips a
    binding that no longer exists; these tests keep every binding it names but
    the ones in GONE: the record adapters the package no longer has, and the
    draw the trial loop no longer makes, as it counts buyers from raw draws."""

    GONE = {("datamarket.simulate", "run_auction"), ("datamarket.cli", "run_auction"),
            ("datamarket.cli", "fit_utility"), ("datamarket.cli", "satisfaction_rate"),
            ("datamarket.simulate", "sample_valuations")}

    def test_cli_and_csvio_layers_resolve(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        bindings = [binding for bindings in tracer.LAYERS.values()
                    for binding in bindings if binding not in self.GONE]
        assert len(bindings) == sum(map(len, tracer.LAYERS.values())) - len(self.GONE)
        for module, attr in bindings:
            assert callable(getattr(importlib.import_module(module), attr, None)), attr

    def test_cli_sweep_writes_through_write_sweep_csv(self, scenario_file, monkeypatch,
                                                      capsys):
        calls = []
        original = csvio.write_sweep_csv

        def counting(rows, out):
            calls.append(len(rows))
            return original(rows, out)

        monkeypatch.setattr(csvio, "write_sweep_csv", counting)
        assert cli_main(["sweep", "--config", scenario_file, "--param", "q",
                         "--lo", "1", "--hi", "100", "--steps", "3",
                         "--trials", "2"]) == 0
        assert calls == [3]
        assert capsys.readouterr().out.startswith("value,expected_profit,")


# stdout recorded before the Monte-Carlo harness moved onto valuation arrays;
# refactors of the mechanism or the trial loop must reproduce it byte for byte
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_taxi.json").read_text(encoding="utf-8")
)
SEEDS = ("0", "7")
GOLDEN_ARGS = {
    f"simulate-seed{seed}": ["simulate", "--trials", "20", "--seed", seed]
    for seed in SEEDS
}
for param, lo, hi in (("q", "1", "100"), ("k", "0.05", "2"), ("gamma", "0.5", "2"),
                      ("price", "0", "0.5")):
    for seed in SEEDS:
        GOLDEN_ARGS[f"sweep-{param}-seed{seed}"] = [
            "sweep", "--param", param, "--lo", lo, "--hi", hi,
            "--steps", "5", "--trials", "5", "--seed", seed,
        ]


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_golden_stdout_is_byte_identical(name, capsys):
    command, *flags = GOLDEN_ARGS[name]
    assert cli_main([command, "--config", str(taxi_scenario_path()), *flags]) == 0
    assert capsys.readouterr().out == GOLDEN[name]


# fit, metric, auction and optimize on small CSVs, each with and without --out:
# stdout, stderr and the --out file text, recorded before the commands
# returned their summary and table as data.  In market.cfg the valuation
# support at q = 1 is a = 0.5, so bob's bid ties the price s/2 = 0.25 and
# dave's lies above the support; flat.csv fits a non-positive slope.
CSV_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_csv.json").read_text(encoding="utf-8")
)
CSV_INPUTS = {
    "points.csv": "q,performance\n1,0.49\n5,0.507\n20,0.518\n50,0.5251\n100,0.531\n",
    "flat.csv": "q,performance\n1,0.6\n10,0.55\n100,0.4\n",
    "preds.csv": "y_true,y_pred\n600,630\n600,850\n600,595\n540,720\n480,421.5\n",
    "bids.csv": "customer_id,bid\nalice,0.6\nbob,0.25\ncarol,0.1\n"
                "dave,0.75\nerin,0\nfrank,0.2500001\ngina,0.2499999\n",
    "market.cfg": SCENARIO.replace("a = 0.4944", "a = 0.5")
                          .replace("b = 0.0079", "b = 0.01").replace("q = 50", "q = 1"),
    "reject.cfg": "M = 10\nk = 1\ngamma = 1\nN = 100\na = 0.001\nb = 0.01\n",
}
CSV_GOLDEN_ARGS = {
    "fit": ["fit", "--points", "points.csv"],
    "fit-flat": ["fit", "--points", "flat.csv"],
    "metric": ["metric", "--predictions", "preds.csv", "--tau", "60"],
    "auction": ["auction", "--bids", "bids.csv", "--config", "market.cfg"],
    "optimize": ["optimize", "--config", "market.cfg"],
    "optimize-rejected": ["optimize", "--config", "reject.cfg"],
}
# sweeps across the rejection boundary of reject.cfg: two rejected gamma rows
# before three sold ones, whose seeds skip the rejected rows' seeds, and two
# sold k rows before three rejected ones
for param, lo, hi in (("gamma", "50", "150"), ("k", "0.001", "0.02")):
    for seed in SEEDS:
        CSV_GOLDEN_ARGS[f"sweep-{param}-rejected-seed{seed}"] = [
            "sweep", "--config", "reject.cfg", "--param", param, "--lo", lo,
            "--hi", hi, "--steps", "5", "--trials", "5", "--seed", seed,
        ]


def run_csv_golden(name, directory):
    """Run one golden CSV command in directory; its stdout, stderr and --out text."""
    for file, text in CSV_INPUTS.items():
        (directory / file).write_text(text, encoding="utf-8")
    base, _, with_out = name.partition("+")
    argv = [str(directory / arg) if arg in CSV_INPUTS else arg
            for arg in CSV_GOLDEN_ARGS[base]]
    out = directory / "out.txt"
    if with_out:
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(argv)
    assert code == 0, stderr.getvalue()
    return {
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out.read_bytes().decode("utf-8") if with_out else None,
    }


CSV_GOLDEN_NAMES = sorted(f"{name}{suffix}" for name in CSV_GOLDEN_ARGS
                          for suffix in ("", "+out"))


@pytest.mark.parametrize("name", CSV_GOLDEN_NAMES)
def test_golden_csv_commands_are_byte_identical(name, tmp_path):
    assert run_csv_golden(name, tmp_path) == CSV_GOLDEN[name]


# sweep and simulate at benchmark size, and auction, fit and metric on seeded
# 2000-row files written with repr floats: SHA-256 of stdout, stderr and the
# --out file of each command, recorded before cli_main reported warnings
# itself.  The bids run up to 1.25 times the taxi support s at q = 50, and 1%
# of them equal the price s/2 exactly.  The auction-quoted runs, recorded
# while csv.writer still wrote the tables, read QUOTED_ROWS bids whose ids need
# quoting in the first two 1024-row blocks but not the third, with a -0.0 bid
# and ties at s/2; one writes its table to --out, the other to stdout.
LARGE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_large.json").read_text(encoding="utf-8")
)
LARGE_ROWS = 2000
QUOTED_ROWS = 2500
QUOTED_IDS = {0: "a,b", 5: 'say "hi"', 6: '"', 1023: "line\r\nbreak", 1024: "",
              1025: "lf\nonly", 1026: "cr\ronly", 1500: "na\u00efve \u9867\u5ba2",
              1501: " pad ", 1502: "\ttab", 2047: ",", 2048: "plain"}
LARGE_ARGS = {"auction": ["auction", "--bids", "bids.csv", "--config", "taxi"],
              "auction-quoted": ["auction", "--bids", "quoted.csv", "--config", "taxi"],
              "auction-quoted-stdout": ["auction", "--bids", "quoted.csv",
                                        "--config", "taxi"],
              "fit": ["fit", "--points", "points.csv"],
              "metric": ["metric", "--predictions", "preds.csv", "--tau", "180"]}
for seed in SEEDS:
    LARGE_ARGS[f"simulate-seed{seed}"] = ["simulate", "--config", "taxi",
                                          "--trials", "100", "--seed", seed]
    for param, lo, hi in (("q", "1", "100"), ("k", "0.05", "5"), ("gamma", "0.1", "3"),
                          ("price", "0.05", "0.5")):
        LARGE_ARGS[f"sweep-{param}-seed{seed}"] = [
            "sweep", "--config", "taxi", "--param", param, "--lo", lo, "--hi", hi,
            "--steps", "100", "--trials", "2", "--seed", seed,
        ]


def write_large_inputs(directory):
    """The seeded 2000-row bids.csv, points.csv and preds.csv in directory."""
    rng = np.random.default_rng(2000)
    support = (0.4944 + 0.0079 * np.log(50.0)) * 1.0
    bids = rng.uniform(0.0, 1.25 * support, LARGE_ROWS)
    bids[rng.choice(LARGE_ROWS, LARGE_ROWS // 100, replace=False)] = support / 2.0
    q = rng.uniform(0.5, 100.0, LARGE_ROWS)
    performance = np.clip(0.4944 + 0.0079 * np.log(q)
                          + rng.normal(0.0, 0.01, LARGE_ROWS), 0.0, 1.0)
    y_true = rng.uniform(60.0, 3600.0, LARGE_ROWS)
    y_pred = y_true + rng.normal(0.0, 180.0, LARGE_ROWS)
    files = {
        "bids.csv": ["customer_id,bid",
                     *(f"c{i},{v!r}" for i, v in enumerate(bids.tolist()))],
        "points.csv": ["q,performance",
                       *(f"{x!r},{y!r}" for x, y in zip(q.tolist(), performance.tolist()))],
        "preds.csv": ["y_true,y_pred",
                      *(f"{x!r},{y!r}" for x, y in zip(y_true.tolist(), y_pred.tolist()))],
    }
    for name, lines in files.items():
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    quoted = rng.uniform(0.0, 1.25 * support, QUOTED_ROWS)
    quoted[rng.choice(QUOTED_ROWS, QUOTED_ROWS // 100, replace=False)] = support / 2.0
    quoted[[1, 1024]] = support / 2.0
    quoted[7] = -0.0
    with open(directory / "quoted.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer_id", "bid"])
        writer.writerows((QUOTED_IDS.get(i, f"c{i}"), repr(v))
                         for i, v in enumerate(quoted.tolist()))


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("large")
    write_large_inputs(directory)
    return directory


def large_digests(name, directory):
    """Run one large golden command in directory; SHA-256 of stdout, stderr and --out."""
    inputs = {"taxi": str(taxi_scenario_path())}
    argv = [inputs.get(arg, str(directory / arg) if arg.endswith(".csv") else arg)
            for arg in LARGE_ARGS[name]]
    out = directory / f"{name}.out"
    to_stdout = name.endswith("-stdout")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(argv if to_stdout else argv + ["--out", str(out)])
    assert code == 0, stderr.getvalue()
    return {stream: None if data is None else hashlib.sha256(data).hexdigest()
            for stream, data in (
        ("stdout", stdout.getvalue().encode("utf-8")),
        ("stderr", stderr.getvalue().encode("utf-8")),
        ("out", None if to_stdout else out.read_bytes()),
    )}


@pytest.mark.parametrize("name", sorted(LARGE_ARGS))
def test_large_golden_commands_are_byte_identical(name, large_inputs):
    assert large_digests(name, large_inputs) == LARGE_GOLDEN[name]
