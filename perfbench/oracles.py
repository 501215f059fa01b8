"""Independent checks of CLI output, one per command the benchmark runs.

Each check recomputes the expected result from the inputs with its own
arithmetic (closed forms, numpy counts, np.polyfit), raises Mismatch when the
output disagrees, and otherwise returns the work the command did: valuations
drawn for simulate and sweep, CSV rows parsed plus written for the others.
The CLI prints numbers with 6 significant digits, so numbers are compared
within half a unit in the sixth digit.
"""

from __future__ import annotations

import math

import numpy as np


class Mismatch(Exception):
    """A command's output disagrees with the oracle."""


def read_scenario(path) -> dict[str, float]:
    """Parse a `key = value` scenario file into floats, without the package."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                fields[key.strip()] = float(value)
    return fields


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 5.01e-6 * abs(want) + 1e-12


def _expect(label: str, got, want) -> None:
    if isinstance(want, float):
        ok = _close(float(got), want)
    else:
        ok = got == want
    if not ok:
        raise Mismatch(f"{label}: got {got}, expected {want}")


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _field(kv: dict[str, str], key: str) -> str:
    try:
        return kv[key]
    except KeyError:
        raise Mismatch(f"output lacks {key!r}") from None


def _utility(sc, q: float) -> float:
    return sc["a"] + sc["b"] * math.log(q)


def _optimum(sc, M: float, k: float, gamma: float) -> tuple[float, float, float]:
    """(q*, expected profit, price) of the purchase, all zero when rejected."""
    q = min(M * gamma * sc["b"] / (4.0 * k), sc["N"])
    profit = M * gamma * _utility(sc, q) / 4.0 - k * q
    if profit <= 0.0:
        return 0.0, 0.0, 0.0
    return q, profit, gamma * _utility(sc, q) / 2.0


def check_simulate(text: str, sc, seed: int, trials: int) -> int:
    kv = _key_values(text)
    M, q, gamma, k = sc["M"], sc["q"], sc["gamma"], sc["k"]
    analytic = M * gamma * _utility(sc, q) / 4.0 - k * q
    _expect("analytic_profit", float(_field(kv, "analytic_profit")), analytic)
    _expect("threshold_price", float(_field(kv, "threshold_price")),
            gamma * _utility(sc, q) / 2.0)
    _expect("M", int(_field(kv, "M")), int(M))
    _expect("trials", int(_field(kv, "trials")), trials)
    _expect("seed", int(_field(kv, "seed")), seed)
    mean = float(_field(kv, "empirical_mean"))
    se = float(_field(kv, "std_error"))
    flag = _field(kv, "within_three_se")
    # Fresh seeds fall outside 3 standard errors about 0.3% of the time, so
    # the flag must agree with the printed numbers (away from the rounding
    # edge), and the mean must lie within 6 standard errors, which a correct
    # program misses with probability about 1e-8.
    gap = abs(mean - analytic)
    if gap < 2.999 * se and flag != "true" or gap > 3.001 * se and flag != "false":
        raise Mismatch(f"within_three_se = {flag} but |mean - analytic| = {gap}, se = {se}")
    if gap > 6.0 * se + 5.01e-6 * abs(analytic):
        raise Mismatch(f"empirical_mean {mean} is {gap} from analytic {analytic}, se = {se}")
    return int(M) * trials


def check_sweep(text: str, sc, param: str, lo: float, hi: float, steps: int,
                trials: int) -> int:
    lines = text.splitlines()
    _expect("header", lines[0],
            "value,expected_profit,optimal_price,optimal_q,empirical_mean,empirical_std")
    _expect("rows", len(lines) - 1, steps)
    M, k, gamma = sc["M"], sc["k"], sc["gamma"]
    base_q = _optimum(sc, M, k, gamma)[0]
    drawn_rows = 0  # rejected k and gamma rows (q* = 0) draw nothing
    for i, line in enumerate(lines[1:]):
        value, profit, price, q_star, mean, std = (float(x) for x in line.split(","))
        x = lo + (hi - lo) * i / (steps - 1)
        if param == "price":
            s = gamma * _utility(sc, sc["q"])
            want = (M * (1.0 - min(max(x / s, 0.0), 1.0)) * x - k * sc["q"],
                    s / 2.0, base_q)
        elif param == "q":
            want = (M * gamma * _utility(sc, x) / 4.0 - k * x,
                    gamma * _utility(sc, x) / 2.0, base_q)
        else:
            swept = {"k": k, "gamma": gamma, param: x}
            q_opt, best, p_opt = _optimum(sc, M, swept["k"], swept["gamma"])
            want = (best, p_opt, q_opt)
        for label, got, expected in zip(
            ("value", "expected_profit", "optimal_price", "optimal_q"),
            (value, profit, price, q_star),
            (x, *want),
        ):
            _expect(f"row {i} {label}", got, expected)
        # the Monte-Carlo mean is unbiased for the expected profit; 6 standard
        # errors keeps false alarms near 1e-8 per row
        if abs(mean - want[0]) > 6.0 * std / math.sqrt(trials) + 5.01e-6 * abs(want[0]) + 1e-12:
            raise Mismatch(f"row {i} empirical_mean {mean} is far from {want[0]}")
        drawn_rows += param in ("price", "q") or want[2] > 0.0
    return drawn_rows * int(M) * trials


def auction_threshold(sc) -> float:
    """The posted price s/2, computed in the order the support s is, so ties stay exact."""
    return 0.5 * (_utility(sc, sc["q"]) * sc["gamma"])


def check_auction(summary: str, table: str, sc, bids: np.ndarray) -> int:
    threshold = auction_threshold(sc)
    wins = bids >= threshold
    winners = int(np.count_nonzero(wins))
    kv = _key_values(summary)
    _expect("winners", int(_field(kv, "winners")), winners)
    _expect("threshold_price", float(_field(kv, "threshold_price")), threshold)
    _expect("gross_profit", float(_field(kv, "gross_profit")),
            winners * threshold - sc["k"] * sc["q"])
    rows = table.splitlines()
    _expect("table header", rows[0], "customer_id,bid,allocation,payment")
    _expect("table rows", len(rows) - 1, bids.size)
    allocated = np.fromiter((r.split(",")[2] == "1" for r in rows[1:]),
                            dtype=bool, count=bids.size)
    if not np.array_equal(allocated, wins):
        raise Mismatch(f"allocation column differs from bids >= {threshold} "
                       f"at row {int(np.argmax(allocated != wins)) + 1}")
    return 2 * bids.size


def check_fit(text: str, q: np.ndarray, performance: np.ndarray) -> int:
    kv = _key_values(text)
    b, a = np.polyfit(np.log(q), performance, 1)
    _expect("a", float(_field(kv, "a")), float(a))
    _expect("b", float(_field(kv, "b")), float(b))
    rmse = math.sqrt(float(np.mean((performance - (a + b * np.log(q))) ** 2)))
    _expect("rmse", float(_field(kv, "rmse")), rmse)
    _expect("n_points", int(_field(kv, "n_points")), q.size)
    return q.size


def check_metric(text: str, y_true: np.ndarray, y_pred: np.ndarray, tau: float) -> int:
    kv = _key_values(text)
    rate = np.count_nonzero(np.abs(y_true - y_pred) < tau) / y_true.size
    _expect("satisfaction_rate", float(_field(kv, "satisfaction_rate")), rate)
    _expect("n_records", int(_field(kv, "n_records")), y_true.size)
    _expect("tau", float(_field(kv, "tau")), tau)
    return y_true.size


def check_optimize(text: str, sc) -> int:
    kv = _key_values(text)
    q, profit, price = _optimum(sc, sc["M"], sc["k"], sc["gamma"])
    _expect("q_star", float(_field(kv, "q_star")), q)
    _expect("optimal_price", float(_field(kv, "optimal_price")), price)
    _expect("expected_profit", float(_field(kv, "expected_profit")), profit)
    _expect("rejected", _field(kv, "rejected"), "true" if q == 0.0 else "false")
    return 0
