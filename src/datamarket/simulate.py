"""Monte-Carlo market harness and one-parameter sweeps.

simulate() replays the optimal posted-price sale on seeded valuation draws and
compares realized profit with the analytic expectation.  sweep() tabulates
analytic and simulated profit along a grid over one of {price, q, k, gamma},
producing plot-ready rows.  Both run on one numpy array of M valuations per
trial, with no per-customer objects, through the same trial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .auction import optimal_price
from .market import ValuationModel, data_cost, sample_valuations, valuation_cdf
from .optimize import expected_profit, grid, optimal_data_size
from .scenario import ScenarioConfig

__all__ = ["SimulationReport", "SweepResultRow", "SWEEP_PARAMETERS", "simulate", "sweep"]

SWEEP_PARAMETERS = ("price", "q", "k", "gamma")


@dataclass(frozen=True)
class SimulationReport:
    """Empirical-vs-analytic profit comparison for one fixed-size market.

    within_three_se is the agreement flag: the empirical mean lies within
    three standard errors of the analytic expectation (meaningful for
    trials >= 2).  trial_profits keeps the realized profit of every trial,
    in trial order.
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
    trial_profits: tuple[float, ...]


@dataclass(frozen=True)
class SweepResultRow:
    """One grid point of a sweep: analytic values plus Monte-Carlo columns."""

    value: float
    expected_profit: float
    optimal_price: float
    optimal_q: float
    empirical_mean: float
    empirical_std: float


def _monte_carlo(model, price, M, cost, first_seed, trials):
    """Profits n_winners*price - cost of posted-price sales, with mean and std.

    Trial t draws M valuations with seed first_seed + t; every customer valued
    at or above the price buys.  The std is the sample one (0 for one trial).
    A mean or std that overflows is a ValueError.
    """
    profits = np.empty(trials)
    for t in range(trials):
        values = sample_valuations(M, model, seed=first_seed + t)
        profits[t] = np.count_nonzero(values >= price) * price - cost
    with np.errstate(over="ignore"):  # the check below reports an overflow
        mean = float(profits.mean())
        std = float(profits.std(ddof=1)) if trials > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"Monte-Carlo profit overflows: mean {mean}, std {std}")
    return profits, mean, std


def simulate(config: ScenarioConfig) -> SimulationReport:
    """Replay the optimal posted-price sale and compare profit with its expectation.

    Trial t draws valuations with seed + t, so every trial is independently
    replayable and the whole report is deterministic for a fixed config.
    """
    if config.q is None:
        raise ValueError("scenario field q: required for simulation")
    params = config.market
    curve = config.curve
    model = config.model()
    analytic = expected_profit(config.q, params, curve)
    price = optimal_price(curve, config.q, params.gamma)
    cost = data_cost(config.q, params.k)

    profits, mean, std = _monte_carlo(
        model, price, params.M, cost, config.seed, config.trials
    )
    se = std / math.sqrt(config.trials)
    return SimulationReport(
        M=params.M,
        q=config.q,
        threshold_price=price,
        trials=config.trials,
        seed=config.seed,
        analytic_profit=analytic,
        empirical_mean=mean,
        empirical_std=std,
        std_error=se,
        within_three_se=abs(mean - analytic) <= 3.0 * se,
        trial_profits=tuple(float(p) for p in profits),
    )


def _point_function(config: ScenarioConfig, parameter: str, lo: float, hi: float):
    """Check the bounds the swept parameter needs; return value -> point.

    A point is (model, posted price, data cost, analytic profit, reported p*,
    reported q*), or None where the purchase is rejected.  Row-independent
    quantities are computed once, here.
    """
    params, curve = config.market, config.curve
    if parameter == "price":
        if config.q is None:
            raise ValueError("scenario field q: required for a price sweep")
        if lo < 0:
            raise ValueError(f"price sweep needs lo >= 0, got {lo}")
        model = config.model()
        p_star = optimal_price(curve, config.q, params.gamma)
        q_star = optimal_data_size(params, curve).q_star
        cost = data_cost(config.q, params.k)

        def price_point(p):
            analytic = params.M * (1.0 - valuation_cdf(p, model)) * p - cost
            return model, p, cost, analytic, p_star, q_star

        return price_point

    if parameter == "q":
        if not (lo > 0 and hi <= params.N):
            raise ValueError(
                f"q sweep must stay within (0, {params.N}], got [{lo}, {hi}]"
            )
        q_star = optimal_data_size(params, curve).q_star

        def size_point(q):
            model = ValuationModel.from_market(curve, q, params.gamma)
            price = optimal_price(curve, q, params.gamma)
            analytic = expected_profit(q, params, curve)
            return model, price, data_cost(q, params.k), analytic, price, q_star

        return size_point

    # k and gamma sweeps re-optimize the purchase at every grid value
    if lo <= 0:
        raise ValueError(f"{parameter} sweep needs lo > 0, got {lo}")

    def market_point(value):
        swept = replace(params, **{parameter: value})
        report = optimal_data_size(swept, curve)
        if report.rejected:
            return None
        q, price = report.q_star, report.price_at_q_star
        model = ValuationModel.from_market(curve, q, swept.gamma)
        analytic = report.expected_profit_at_q_star
        return model, price, data_cost(q, swept.k), analytic, price, q

    return market_point


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
    per-trial seeding scheme across grid rows.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    values = grid(lo, hi, steps).tolist()
    point_at = _point_function(config, parameter, lo, hi)

    rows: list[SweepResultRow] = []
    for r, value in enumerate(values):
        point = point_at(value)
        if point is None:
            rows.append(SweepResultRow(value, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        model, price, cost, *reported = point
        seed = config.seed + r * config.trials
        _, mean, std = _monte_carlo(model, price, config.M, cost, seed, config.trials)
        rows.append(SweepResultRow(value, *reported, mean, std))
    return rows
