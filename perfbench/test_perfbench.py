"""Tests of the benchmark's own logic: span arithmetic, the tail rule, the oracles.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import importlib
import io
import re
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracles
import workload
from inputs import make_inputs
from tracer import Tracer, layer_stats

sys.path.insert(0, str(workload.ROOT / "src"))
cli = importlib.import_module("datamarket.cli")
SC = oracles.read_scenario(workload.ROOT / workload.SCENARIO)


def test_self_time_is_span_time_minus_traced_children():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("read", 1.0, 4.0, 0),
        ("parse", 2.0, 3.0, 1),
        ("read", 5.0, 9.0, 0),
    ]
    stats = layer_stats(spans)
    assert stats["cli"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert stats["read"] == {"calls": 2, "s": 7.0, "self_s": 6.0}
    assert stats["parse"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_wrapped_calls_nest_under_their_caller():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert layer_stats(tracer.spans)["outer"]["self_s"] == 5.0 - 2.0


def test_tail_keeps_ten_samples_above_it():
    samples = [float(x) for x in range(1, 21)]
    assert workload.tail(samples) == (10.0, 50.0, 20)
    assert workload.tail(samples[:10]) == (10.0, 100.0, 10)


@pytest.fixture
def run(tmp_path, monkeypatch):
    """Run command i of a workload through the CLI; returns (command, stdout, file text)."""
    monkeypatch.chdir(workload.ROOT)
    data = make_inputs(7, tmp_path, SC, rows=2000)

    def go(name, i=0, **overrides):
        for key, value in overrides.items():
            monkeypatch.setattr(workload, key, value)
        cmd = workload.command(name, i, 7, tmp_path, SC, data)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.cli_main(cmd.argv) == 0
        stdout, text = buf.getvalue(), cmd.out.read_text(encoding="utf-8")
        cmd.check(stdout, text)  # the true output passes
        return cmd, stdout, text

    return go


def _rejects(cmd, stdout, text):
    with pytest.raises(oracles.Mismatch):
        cmd.check(stdout, text)


def test_inputs_cover_ties_and_bids_above_support(tmp_path):
    data = make_inputs(3, tmp_path, SC, rows=2000)
    threshold = oracles.auction_threshold(SC)
    assert np.count_nonzero(data["bids"] == threshold) == 20
    assert np.any(data["bids"] > 2 * threshold)
    errors = np.abs(data["y_true"] - data["y_pred"])
    assert np.any(errors < SC["tau"]) and np.any(errors > SC["tau"])
    (tmp_path / "again").mkdir()
    again = make_inputs(3, tmp_path / "again", SC, rows=2000)
    assert all(np.array_equal(data[k], again[k]) for k in data)
    assert (tmp_path / "bids.csv").read_bytes() == (tmp_path / "again/bids.csv").read_bytes()


def test_auction_oracle_rejects_winners_off_by_one(run):
    cmd, stdout, table = run("csv_batch", 0)
    winners = int(re.search(r"winners = (\d+)", stdout).group(1))
    _rejects(cmd, stdout.replace(f"winners = {winners}", f"winners = {winners + 1}"),
             table)
    flipped = table.replace(",1,", ",0,", 1)
    _rejects(cmd, stdout, flipped)


def test_fit_oracle_rejects_slope_perturbed_by_1e_6(run):
    cmd, stdout, text = run("csv_batch", 1)
    b = float(re.search(r"^b = (\S+)$", text, re.M).group(1))
    _rejects(cmd, stdout, re.sub(r"^b = \S+$", f"b = {b + 1e-6:.6g}", text, flags=re.M))


def test_metric_oracle_rejects_one_miscounted_record(run):
    cmd, stdout, text = run("csv_batch", 2)
    rate = float(re.search(r"satisfaction_rate = (\S+)", text).group(1))
    _rejects(cmd, stdout, text.replace(f"satisfaction_rate = {rate:.6g}",
                                       f"satisfaction_rate = {rate + 1 / 2000:.6g}"))


def test_optimize_oracle_rejects_wrong_q_star(run):
    cmd, stdout, text = run("csv_batch", 3)
    _rejects(cmd, stdout, text.replace("q_star = 39.5", "q_star = 39.6"))


def test_simulate_oracle_rejects_wrong_profit_and_flag(run):
    cmd, stdout, text = run("montecarlo", TRIALS=10)
    analytic = re.search(r"analytic_profit = (\S+)", text).group(1)
    _rejects(cmd, stdout, text.replace(f"analytic_profit = {analytic}",
                                       f"analytic_profit = {float(analytic) + 0.1:.6g}"))
    flag = re.search(r"within_three_se = (\w+)", text).group(1)
    other = {"true": "false", "false": "true"}[flag]
    _rejects(cmd, stdout, text.replace(f"within_three_se = {flag}",
                                       f"within_three_se = {other}"))


def _with_cell(text, row, column, scale):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = f"{float(cells[column]) * scale:.6g}"
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_oracle_rejects_one_wrong_cell(run):
    for i in range(len(workload.SWEEP_GRIDS)):
        cmd, stdout, text = run("sweep", i, TRIALS=20, SWEEP_STEPS=5)
        _rejects(cmd, stdout, _with_cell(text, 2, 1, 1.0001))  # expected_profit
        _rejects(cmd, stdout, _with_cell(text, 2, 4, 1.05))  # empirical_mean
