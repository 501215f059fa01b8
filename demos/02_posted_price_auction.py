"""Run the truthful posted-price auction on a small batch of sealed bids.

Shows the virtual-bid transform, the winner threshold, the uniform payment,
and why no bidder can gain by shading its bid.
"""

import numpy as np

from datamarket import (
    UtilityCurve,
    ValuationModel,
    data_cost,
    optimal_price,
    posted_price,
    sale_profit,
    sample_valuations,
    virtual_valuation,
)

curve = UtilityCurve(a=0.4944, b=0.0079)
q, gamma, k = 50.0, 1.0, 0.5
model = ValuationModel.from_market(curve, q, gamma)

print(f"service built from q = {q} data units")
print(f"valuations are uniform on [0, {model.support_max:.4f}]")
print(f"posted price p* = {optimal_price(curve, q, gamma):.4f}\n")

# customer i bids bids[i]: truthfully, its valuation
bids = sample_valuations(8, model, seed=11)
winners, price = posted_price(bids, model)
payments = np.where(winners, price, 0.0)

print("customer   bid      virtual   wins  pays")
for i, (bid, virtual) in enumerate(zip(bids, virtual_valuation(bids, model))):
    print(f"{f'c{i}':>8}   {bid:.4f}   {virtual:+.4f}   "
          f"{int(winners[i])}     {payments[i]:.4f}")
print(f"\nwinners pay the same threshold price {price:.4f}")
profit = sale_profit(np.count_nonzero(winners), price, data_cost(q, k))
print(f"gross profit = payments - data cost = {profit:.4f}")


def utility(bids, i, true_value):
    """Customer i's realized utility v - price if it wins, else 0."""
    won, price = posted_price(bids, model)
    return true_value - price if won[i] else 0.0


# deviating from the truthful bid never helps
true_value = bids[0]
print(f"\nc0 (true value {true_value:.4f}) tries other bids:")
for shaded in np.linspace(0.0, model.support_max, 6):
    trial = bids.copy()
    trial[0] = shaded
    print(f"  bid {shaded:.4f} -> utility {utility(trial, 0, true_value):+.4f}")
print(f"  truthful utility stays {utility(bids, 0, true_value):+.4f}")
