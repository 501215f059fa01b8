import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

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


class TestMetric:
    def test_reports_rate(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("y_true,y_pred\n600,630\n600,850\n600,595\n", encoding="utf-8")
        assert cli_main(["metric", "--predictions", str(preds), "--tau", "60"]) == 0
        report = lines_of(capsys.readouterr().out)
        assert float(report["satisfaction_rate"]) == pytest.approx(2 / 3, abs=1e-6)
        assert report["n_records"] == "3"


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
        assert "field q" in capsys.readouterr().err


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

    def test_negative_seed_override_rejected(self, scenario_file, capsys):
        assert cli_main(["simulate", "--config", scenario_file, "--seed", "-1"]) == 1
        assert "field seed" in capsys.readouterr().err

    def test_seed_override_changes_output(self, scenario_file, capsys):
        assert cli_main(["simulate", "--config", scenario_file, "--seed", "99"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["simulate", "--config", scenario_file]) == 0
        assert capsys.readouterr().out != first


class TestSweep:
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
        assert "error: expected profit overflows" in captured.err

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
        assert "error: data cost k*q" in captured.err

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
        assert "error: Monte-Carlo profit overflows" in captured.err

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
            "error: scenario field q: required for simulation\n")


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
    ("datamarket.simulate", "run_auction"), gone since simulate stopped running
    the auction adapter."""

    def test_cli_and_csvio_layers_resolve(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        bindings = [binding for bindings in tracer.LAYERS.values()
                    for binding in bindings
                    if binding != ("datamarket.simulate", "run_auction")]
        assert len(bindings) == sum(map(len, tracer.LAYERS.values())) - 1
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
# of them equal the price s/2 exactly.
LARGE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_large.json").read_text(encoding="utf-8")
)
LARGE_ROWS = 2000
LARGE_ARGS = {"auction": ["auction", "--bids", "bids.csv", "--config", "taxi"],
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
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(argv + ["--out", str(out)])
    assert code == 0, stderr.getvalue()
    return {stream: hashlib.sha256(data).hexdigest() for stream, data in (
        ("stdout", stdout.getvalue().encode("utf-8")),
        ("stderr", stderr.getvalue().encode("utf-8")),
        ("out", out.read_bytes()),
    )}


@pytest.mark.parametrize("name", sorted(LARGE_ARGS))
def test_large_golden_commands_are_byte_identical(name, large_inputs):
    assert large_digests(name, large_inputs) == LARGE_GOLDEN[name]
