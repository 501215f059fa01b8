"""Monte-Carlo market harness and one-parameter sweeps.

simulate() replays the optimal posted-price sale on seeded valuation draws and
compares realized profit with the analytic expectation.  sweep() tabulates
analytic and simulated profit along a grid over one of {price, q, k, gamma},
producing plot-ready rows.  Each builds its sales' valuation models and data
costs from the market and the data size, then makes one count of the whole
run's buyers (market._count_buyers), from raw draws a chunk at a time, with no
per-customer objects and no array of M valuations; a large run is counted on
every CPU.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .auction import optimal_price, sale_profit
from .market import (_UNITS, ValuationModel, _count_buyers, _require_integer,
                     _unit_threshold, data_cost, valuation_cdf)
from .optimize import expected_profit, grid, optimal_data_size
from .scenario import ScenarioConfig

__all__ = ["SimulationReport", "SweepResultRow", "SWEEP_PARAMETERS", "MAX_DRAWS",
           "MAX_TRIALS", "ScenarioError", "check_draws", "simulate", "sweep"]

SWEEP_PARAMETERS = ("price", "q", "k", "gamma")
# The most valuations one run may draw: M per trial, times trials per row,
# times rows.  _count_buyers counts 10**8 (100 trials of M = 10**6) in
# 0.29-0.37 s on one thread and 0.18-0.24 s split across two, min of 7 on a
# 2-vCPU Xeon.  It bounds time alone: a run holds at most a chunk of 65536 raw
# draws (0.5 MB) whatever M is and however many threads count it.  The largest
# benchmark command, a sweep of 100 rows of 100 trials of M = 10**4, draws
# exactly 10**8.
MAX_DRAWS = 10**8
# The most trials one run may make: trials per row, times rows.  A trial of
# M = 1 costs _count_buyers 3.4-3.7 us on one thread (10**5 in 0.34-0.37 s,
# min of 7, same machine), and 5.8-7.4 us split across two, which a run of
# M = 1 never is; so 10**6 trials take about 4 s.  The largest benchmark
# command makes 10**4.
MAX_TRIALS = 10**6


class ScenarioError(ValueError):
    """A fault of the scenario's own values, not of the grid a sweep runs it over."""


@dataclass(frozen=True)
class SimulationReport:
    """Empirical-vs-analytic profit comparison for one fixed-size market.

    within_three_se is the agreement flag: the empirical mean lies within
    three standard errors of the analytic expectation (meaningful for
    trials >= 2).  The report keeps these statistics, not the trials:
    replay trial t alone with trials=1 and seed + t.
    """

    M: int
    q: float
    threshold_price: float
    trials: int
    seed: int
    analytic_profit: float
    empirical_mean: float
    empirical_std: float
    std_error: float
    within_three_se: bool


@dataclass(frozen=True)
class SweepResultRow:
    """One grid point of a sweep: analytic values plus Monte-Carlo columns."""

    value: float
    expected_profit: float
    optimal_price: float
    optimal_q: float
    empirical_mean: float
    empirical_std: float


def _sale(params, curve, q, price):
    """The data cost of a q-unit sale at price, and the price's unit threshold
    for the sale's valuation model (see _count_buyers)."""
    model = ValuationModel.from_market(curve, q, params.gamma)
    return data_cost(q, params.k), _unit_threshold(model.support_max, price)


def _profit_stats(counts, price, cost):
    """Mean and sample std of the profits n_winners*price - cost of the
    trials that sold to counts buyers.

    When every trial sells to the same number of buyers (one trial, or a
    price no one or everyone pays), the mean is that one profit and the std
    0: summing n equal floats need not give either exactly.  An overflow is a
    ValueError.
    """
    with np.errstate(over="ignore"):  # the check below reports an overflow
        profits = sale_profit(counts, price, cost)
        if counts.min() == counts.max():
            mean, std = float(profits[0]), 0.0
        else:
            mean, std = float(profits.mean()), float(profits.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"Monte-Carlo profit overflows: mean {mean}, std {std}")
    return mean, std


def check_draws(M, trials, rows=1, names=("scenario field M", "scenario field trials",
                                        "steps")) -> None:
    """Refuse a run of more than MAX_DRAWS valuation draws or MAX_TRIALS
    trials, before it draws any.

    Each of M, trials and rows (their names in names) must be an integer,
    and is checked to be one before any is multiplied.  The error names the
    first that is not, or else the first that takes the product of it and
    those before it over a bound.
    """
    M, trials, rows = map(_require_integer, names, (M, trials, rows))
    for factors, product, unit, bound in (
            ((M, trials, rows), "M x trials x rows", "valuation draws", MAX_DRAWS),
            ((trials, rows), "trials x rows", "trials", MAX_TRIALS)):
        for name, total in zip(names[-len(factors):], accumulate(factors, operator.mul)):
            if total > bound:
                raise ValueError(
                    f"{name}: {product} = {' x '.join(map(str, factors))} = "
                    f"{math.prod(factors)} {unit}, over the limit of {bound}"
                )


def simulate(config: ScenarioConfig) -> SimulationReport:
    """Replay the optimal posted-price sale and compare profit with its expectation.

    Trial t draws valuations with seed + t, so every trial is independently
    replayable and the whole report is deterministic for a fixed config.
    """
    if config.q is None:
        raise ValueError("scenario field q: required for simulation")
    params, curve, q = config.market, config.curve, config.q
    check_draws(params.M, config.trials)
    price = optimal_price(curve, q, params.gamma)
    analytic = expected_profit(q, params, curve)
    cost, unit = _sale(params, curve, q, price)
    (counts,) = _count_buyers(params.M, [unit], config.seed, config.trials)
    mean, std = _profit_stats(counts, price, cost)
    se = std / math.sqrt(config.trials)
    return SimulationReport(
        M=params.M,
        q=q,
        threshold_price=price,
        trials=config.trials,
        seed=config.seed,
        analytic_profit=analytic,
        empirical_mean=mean,
        empirical_std=std,
        std_error=se,
        within_three_se=abs(mean - analytic) <= 3.0 * se,
    )


def sweep(
    config: ScenarioConfig, parameter: str, lo: float, hi: float, steps: int
) -> list[SweepResultRow]:
    """Tabulate analytic and simulated profit along a one-parameter grid.

    price:      the posted price varies at the configured q; analytic profit
                is M*(1 - F(p))*p - k*q.
    q:          the data size varies and the service sells at its own optimal
                price; analytic profit is the expected-profit curve.
    k, gamma:   the market constant varies and each row re-optimizes the
                purchase, reporting optimal profit, price, and data size
                (all zero on rejected rows, where nothing is bought or sold).
    Rows follow grid order; Monte-Carlo columns use config.trials runs each.
    Row r, trial t draws with seed + r*trials + t, extending simulate()'s
    per-trial seeding scheme across grid rows; a rejected row draws nothing,
    and later rows keep their seeds.  A fault of the scenario alone, found
    before any row, is a ScenarioError; any other is a plain ValueError, and
    of a row's faults the first in row order is raised.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    params, curve, q = config.market, config.curve, config.q
    # grid's own check, made before the draw bound multiplies steps
    steps = _require_integer("grid steps", steps)
    check_draws(params.M, config.trials, steps)
    values = grid(lo, hi, steps).tolist()
    if parameter == "price" and lo < 0:
        raise ValueError(f"price sweep needs lo >= 0, got {lo}")
    if parameter == "q" and not (lo > 0 and hi <= params.N):
        raise ValueError(f"q sweep must stay within (0, {params.N}], got [{lo}, {hi}]")
    if parameter in ("k", "gamma") and lo <= 0:
        raise ValueError(f"{parameter} sweep needs lo > 0, got {lo}")
    try:  # from the scenario alone; k and gamma rows re-optimize, so need no q*
        if parameter == "price":
            if q is None:
                raise ValueError("scenario field q: required for a price sweep")
            # every row sells the service of the configured q
            model, p_star = config.model(), optimal_price(curve, q, params.gamma)
            q_star, cost = optimal_data_size(params, curve).q_star, data_cost(q, params.k)
        elif parameter == "q":
            q_star = optimal_data_size(params, curve).q_star
    except ValueError as exc:
        raise ScenarioError(exc) from None

    # every row's analytic columns, data cost and unit threshold, up to the
    # first row that faults; the rows before it are counted at once, and its
    # fault is raised after theirs, as a row-by-row loop would
    plan, fault = [], None
    for value in values:
        try:
            if parameter == "price":
                price, sale = value, (cost, _unit_threshold(model.support_max, value))
                buyers = params.M * (1.0 - valuation_cdf(price, model))
                columns = (sale_profit(buyers, price, cost), p_star, q_star)
            elif parameter == "q":
                q, price = value, optimal_price(curve, value, params.gamma)
                columns = (expected_profit(q, params, curve), price, q_star)
                sale = _sale(params, curve, q, price)
            else:
                market = replace(params, **{parameter: value})
                report = optimal_data_size(market, curve)
                q, price = report.q_star, report.price_at_q_star
                columns = (report.expected_profit_at_q_star, price, q)
                # a rejected row, all of whose columns are 0, buys, sells and
                # draws nothing
                sale = (0.0, _UNITS) if report.rejected else _sale(market, curve, q, price)
        except ValueError as exc:
            fault = exc
            break
        plan.append((value, columns, price, *sale))
    counts = _count_buyers(params.M, [unit for *_, unit in plan], config.seed,
                           config.trials)
    rows = [SweepResultRow(value, *columns, *_profit_stats(row_counts, price, cost))
            for (value, columns, price, cost, _), row_counts in zip(plan, counts)]
    if fault is not None:
        raise fault
    return rows
