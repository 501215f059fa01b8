"""Expected provider profit and the optimal size of the data purchase."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .auction import optimal_price
from .market import (
    MarketParams,
    UtilityCurve,
    _real,
    _reals,
    _require_all,
    _require_integer,
    _unwrap,
    data_cost,
    data_utility,
    require_positive,
)

__all__ = [
    "ProfitReport",
    "expected_profit",
    "optimal_data_size",
    "concavity_check",
    "grid_argmax",
]


@dataclass(frozen=True)
class ProfitReport:
    """Optimal purchase decision: buy q_star data units, or reject (q_star = 0).

    When rejected, profit and price are reported as 0: the provider does not
    buy, so no service is built and nothing is sold.
    """

    q_star: float
    expected_profit_at_q_star: float
    price_at_q_star: float
    rejected: bool


def expected_profit(q, params: MarketParams, curve: UtilityCurve):
    """Expected gross profit at data size q: M*gamma*r(q)/4 - k*q, and 0 at q=0.

    At the optimal posted price, half the customers buy and each pays half
    the valuation support, hence the quarter factor.  q may be a scalar
    (giving a float) or an array of sizes in [0, N].
    """
    require_positive("utility-curve slope b", curve.b)
    qs = _reals("data size", require_positive("data size", q, True))
    _require_all(qs <= params.N,
                 lambda i: f"data size must lie in [0, {params.N}], got {qs.flat[i]}")
    bought = qs > 0
    # r(q) is undefined at q = 0; the placeholder 1 is masked out below
    r = data_utility(np.where(bought, qs, 1.0), curve)
    revenue = params.M * params.gamma * r / 4.0
    profit = np.where(bought, revenue - data_cost(qs, params.k), 0.0)
    _require_all(np.isfinite(profit),
                 lambda i: f"expected profit overflows at data size {qs.flat[i]}: "
                           f"M*gamma*r(q)/4 - k*q = {profit.flat[i]}")
    return _unwrap(profit)


def optimal_data_size(params: MarketParams, curve: UtilityCurve) -> ProfitReport:
    """Globally optimal data purchase for a market.

    The unconstrained stationary point M*gamma*b/(4k) is clamped to the
    available size N.  Expected profit is concave on (0, N], so that point
    is the global maximizer there and the provider buys iff profit at it is
    strictly positive.
    """
    q_plus = params.M * params.gamma * curve.b / (4.0 * params.k)
    q_plus = min(q_plus, params.N)
    profit = expected_profit(q_plus, params, curve)
    if profit > 0.0:
        return ProfitReport(
            q_star=q_plus,
            expected_profit_at_q_star=profit,
            price_at_q_star=optimal_price(curve, q_plus, params.gamma),
            rejected=False,
        )
    return ProfitReport(
        q_star=0.0, expected_profit_at_q_star=0.0, price_at_q_star=0.0, rejected=True
    )


def concavity_check(params: MarketParams, curve: UtilityCurve, q):
    """Second derivative of expected profit at q: -M*gamma*b/(4*q^2), never > 0;
    q may be an array."""
    require_positive("utility-curve slope b", curve.b)
    q = require_positive("data size", q)
    return _unwrap(-params.M * params.gamma * curve.b / (4.0 * q * q))


def grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """steps evenly spaced points from lo to hi: real finite lo < hi, integer steps >= 2."""
    lo, hi = _real("grid bound lo", lo), _real("grid bound hi", hi)
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"grid bound {name} must be finite, got {bound}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    if _require_integer("grid steps", steps) < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    return np.linspace(lo, hi, steps)


def grid_argmax(
    f: Callable, lo: float, hi: float, steps: int
) -> tuple[float, float]:
    """Maximize f over a uniform grid on [lo, hi].

    Returns (argmax, max value); on exact ties the smallest grid point wins.
    f evaluates the whole grid at once: it takes the array of grid points and
    returns an array of the same shape (the closed forms accept arrays).
    """
    xs = grid(lo, hi, steps)
    ys = _reals("objective", f(xs))
    if ys.shape != xs.shape:
        raise ValueError(
            f"objective must evaluate the whole grid: got shape {ys.shape} "
            f"for {xs.shape} grid points"
        )
    _require_all(np.isfinite(ys), lambda i: f"objective is not finite at {float(xs[i])}")
    i = int(np.argmax(ys))
    return float(xs[i]), float(ys[i])
