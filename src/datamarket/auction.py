"""Posted-price digital-goods auction built on the virtual-valuation transform.

The service has unlimited supply, so revenue maximization collapses to a
single threshold price charged to every customer whose virtual bid clears
zero.  posted_price() is the array kernel that decides winners and the
price; run_auction() adapts sealed CustomerBid records to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import (
    AuctionOutcome,
    CustomerBid,
    UtilityCurve,
    ValuationModel,
    _unwrap,
    data_cost,
)

__all__ = [
    "MechanismResult",
    "virtual_valuation",
    "inverse_virtual",
    "optimal_price",
    "posted_price",
    "sale_profit",
    "run_auction",
    "customer_utility",
]


@dataclass(frozen=True, eq=False)
class MechanismResult:
    """Outcome of one auction plus the mechanism internals.

    threshold_price is what every winner pays.  virtual_bids holds the
    transformed (and, where needed, support-clamped) bids, aligned with
    outcome.customer_ids.
    """

    outcome: AuctionOutcome
    threshold_price: float
    virtual_bids: np.ndarray


def virtual_valuation(v, model: ValuationModel):
    """A bid minus its information rent (1 - F(v)) / f(v); vectorizes over v.

    For valuations uniform on [0, s] this is 2*v - s, monotone in v.
    """
    s = model.support_max
    arr = np.asarray(v, dtype=float)
    outside = arr[~((arr >= 0.0) & (arr <= s))]
    if outside.size:
        raise ValueError(f"valuation {outside[0]} outside the support [0, {s}]")
    return _unwrap(2.0 * arr - s)


def inverse_virtual(y: float, model: ValuationModel) -> float:
    """The valuation whose virtual valuation equals y."""
    s = model.support_max
    if not -s <= y <= s:
        raise ValueError(f"{y} outside the virtual-valuation image [{-s}, {s}]")
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
    values above the support included); every winner pays the price.
    """
    price = inverse_virtual(0.0, model)
    return values >= price, price


def sale_profit(n_winners: int, price: float, cost: float) -> float:
    """Profit of a posted-price sale: n_winners*price minus the cost of its data."""
    return n_winners * price - cost


def run_auction(
    bids: Sequence[CustomerBid],
    model: ValuationModel,
    q: float,
    k: float,
) -> MechanismResult:
    """Sell the service to every customer whose bid clears the threshold price.

    Winners and the price come from posted_price().  A bid above the valuation
    support is clamped for the virtual-bid computation but kept verbatim in the
    caller's records.  Gross profit is winners times the price minus the cost
    of the q data units.
    """
    if len(bids) == 0:
        raise ValueError("bids must be non-empty")
    cost = data_cost(q, k)
    ids = tuple(b.customer_id for b in bids)
    values = np.fromiter((b.bid for b in bids), dtype=float, count=len(bids))

    winners, price = posted_price(values, model)
    virtual = virtual_valuation(np.minimum(values, model.support_max), model)
    payments = np.where(winners, price, 0.0)
    allocations = winners.astype(np.int8)
    gross = sale_profit(np.count_nonzero(winners), price, cost)
    for arr in (allocations, payments, virtual):
        arr.setflags(write=False)
    outcome = AuctionOutcome(
        customer_ids=ids,
        allocations=allocations,
        payments=payments,
        gross_profit=gross,
    )
    return MechanismResult(outcome=outcome, threshold_price=price, virtual_bids=virtual)


def customer_utility(
    bid: CustomerBid, true_valuation: float, result: MechanismResult
) -> float:
    """Realized utility v*x - p of one customer in an auction result."""
    i = result.outcome.index_of(bid.customer_id)
    return true_valuation * float(result.outcome.allocations[i]) - float(
        result.outcome.payments[i]
    )
