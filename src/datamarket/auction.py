"""Posted-price digital-goods auction built on the virtual-valuation transform.

The service has unlimited supply, so revenue maximization collapses to a
single threshold price charged to every customer whose virtual bid clears
zero.  posted_price() decides the winners of an array of bids and the price
they pay; sale_profit() is the profit of such a sale.
"""

from __future__ import annotations

import numpy as np

from .market import (UtilityCurve, ValuationModel, _real, _reals, _require_all, _unwrap,
                     require_positive)

__all__ = [
    "virtual_valuation",
    "inverse_virtual",
    "optimal_price",
    "posted_price",
    "sale_profit",
]


def virtual_valuation(v, model: ValuationModel):
    """A bid minus its information rent (1 - F(v)) / f(v); vectorizes over v.

    For valuations uniform on [0, s] this is 2*v - s, monotone in v.
    """
    s = model.support_max
    arr = _reals("valuation", v)
    _require_all((arr >= 0.0) & (arr <= s),
                 lambda i: f"valuation {arr.flat[i]} outside the support [0, {s}]")
    return _unwrap(2.0 * arr - s)


def inverse_virtual(y: float, model: ValuationModel) -> float:
    """The valuation whose virtual valuation equals y."""
    s, y = model.support_max, _real("y", y)
    if not -s <= y <= s:
        raise ValueError(f"y: must lie in the virtual-valuation image [{-s}, {s}], got {y}")
    return (y + s) / 2.0


def optimal_price(curve: UtilityCurve, q: float, gamma: float) -> float:
    """Revenue-maximizing posted price for a service of size q: gamma*r(q)/2.

    This is the zero of the virtual valuation, i.e. the smallest bid that
    still wins.
    """
    return inverse_virtual(0.0, ValuationModel.from_market(curve, q, gamma))


def posted_price(values: np.ndarray, model: ValuationModel) -> tuple[np.ndarray, float]:
    """Winner mask and price of the revenue-optimal sale to valuations from model.

    The price is the zero of the virtual valuation.  Virtual values are
    monotone, so exactly the values at or above the price clear zero (ties and
    values above the support included); every winner pays the price.  A value
    that is negative or not finite is a ValueError naming the first such bid.
    """
    values = _checked_bids(values)
    price = inverse_virtual(0.0, model)
    return values >= price, price


def _checked_bids(values) -> np.ndarray:
    """values as a float array, each checked to be a finite, non-negative bid."""
    return require_positive("bid", values, True)


def sale_profit(n_winners, price: float, cost: float):
    """Profit of a posted-price sale: n_winners*price minus the cost of its data.

    n_winners may be an array of counts, one per sale.
    """
    return n_winners * _real("price", price) - _real("cost", cost)
