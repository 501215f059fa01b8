"""Monte-Carlo market harness and one-parameter sweeps.

simulate() replays the optimal posted-price sale on seeded valuation draws and
compares realized profit with the analytic expectation.  sweep() tabulates
analytic and simulated profit along a grid over one of {price, q, k, gamma},
producing plot-ready rows.  Both run through the same trial loop, which
builds each sale's valuation model and data cost from the market and the data
size, and counts each trial's buyers from its raw draws a chunk at a time,
with no per-customer objects and no array of M valuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .auction import optimal_price, sale_profit
from .market import ValuationModel, _count_buyers, data_cost, valuation_cdf
from .optimize import expected_profit, grid, optimal_data_size
from .scenario import ScenarioConfig

__all__ = ["SimulationReport", "SweepResultRow", "SWEEP_PARAMETERS", "MAX_DRAWS",
           "MAX_TRIALS", "ScenarioError", "check_draws", "simulate", "sweep"]

SWEEP_PARAMETERS = ("price", "q", "k", "gamma")
# The most valuations one run may draw: M per trial, times trials per row,
# times rows.  _count_buyers counts 10**8 (100 trials of M = 10**6) in 0.26 s,
# min of 7 on a 2-vCPU Xeon.  It bounds time alone: a trial holds at most a
# chunk of 65536 raw draws (0.5 MB) whatever M is.  The largest benchmark
# command, a sweep of 100 rows of 100 trials of M = 10**4, draws exactly 10**8.
MAX_DRAWS = 10**8
# The most trials one run may make: trials per row, times rows.  A trial of
# M = 1 costs _count_buyers 3.6 us (10**5 in 0.36 s, min of 7, same machine),
# so its 10**6 trials take about 4 s; the largest benchmark command makes 10**4.
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


def _monte_carlo(params, curve, q, price, first_seed, trials):
    """Mean and sample std of the profits n_winners*price - k*q of q-unit sales.

    Trial t draws M valuations on [0, gamma*r(q)] with seed first_seed + t;
    every customer valued at or above the price buys.  When every trial
    sells to the same number of buyers (one trial, or a price no one or
    everyone pays), the mean is that one profit and the std 0: summing n
    equal floats need not give either exactly.  An overflow is a ValueError.
    """
    model = ValuationModel.from_market(curve, q, params.gamma)
    cost = data_cost(q, params.k)
    counts = _count_buyers(params.M, model, price, first_seed, trials)
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

    The error names the first of M, trials and rows (their names in names)
    that takes the product of it and those before it over a bound.
    """
    for factors, product, unit, bound in (
            ((M, trials, rows), "M x trials x rows", "valuation draws", MAX_DRAWS),
            ((trials, rows), "trials x rows", "trials", MAX_TRIALS)):
        total = 1
        for name, factor in zip(names[-len(factors):], factors):
            total *= factor
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
    check_draws(config.M, config.trials)
    params, curve, q = config.market, config.curve, config.q
    price = optimal_price(curve, q, params.gamma)
    analytic = expected_profit(q, params, curve)
    mean, std = _monte_carlo(params, curve, q, price, config.seed, config.trials)
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
    before any row, is a ScenarioError; any other is a plain ValueError.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    check_draws(config.M, config.trials, steps)
    values = grid(lo, hi, steps).tolist()
    params, curve, q = config.market, config.curve, config.q
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

    rows: list[SweepResultRow] = []
    for row, value in enumerate(values):
        market = params
        if parameter == "price":
            price = value
            analytic = params.M * (1.0 - valuation_cdf(price, model)) * price - cost
            columns = (analytic, p_star, q_star)
        elif parameter == "q":
            q, price = value, optimal_price(curve, value, params.gamma)
            columns = (expected_profit(q, params, curve), price, q_star)
        else:
            market = replace(params, **{parameter: value})
            report = optimal_data_size(market, curve)
            if report.rejected:
                rows.append(SweepResultRow(value, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            q, price = report.q_star, report.price_at_q_star
            columns = (report.expected_profit_at_q_star, price, q)
        mean, std = _monte_carlo(market, curve, q, price,
                                 config.seed + row * config.trials, config.trials)
        rows.append(SweepResultRow(value, *columns, mean, std))
    return rows
