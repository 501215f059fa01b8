"""Core market model: data cost, diminishing-returns utility, customer valuations.

A service provider buys q raw data units at unit cost k, turns them into a
service whose performance grows logarithmically with q, and sells licenses
to M customers whose willingness to pay is proportional to that performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilityCurve",
    "MarketParams",
    "ValuationModel",
    "CustomerBid",
    "AuctionOutcome",
    "data_cost",
    "data_utility",
    "valuation_cdf",
    "sample_valuations",
]


@dataclass(frozen=True)
class UtilityCurve:
    """Coefficients of the performance-vs-data-size law a + b*ln(q).

    A positive slope b gives the strictly increasing, diminishing-returns
    shape the market math relies on.  Construction only requires finite
    coefficients so degenerate fits can still be reported; profit
    optimization and scenario loading refuse b <= 0.
    """

    a: float
    b: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")


@dataclass(frozen=True)
class MarketParams:
    """Market-wide constants for one scenario.

    M      number of customers (positive integer)
    k      cost of one data unit (> 0)
    gamma  influence of service performance on willingness to pay (> 0)
    N      maximum data size available from the collector (> 0)
    """

    M: int
    k: float
    gamma: float
    N: float

    def __post_init__(self):
        require_positive("M", self.M)
        if self.M != int(self.M):
            raise ValueError(f"M: must be an integer, got {self.M!r}")
        object.__setattr__(self, "M", int(self.M))
        require_positive("k", self.k)
        require_positive("gamma", self.gamma)
        require_positive("N", self.N)


@dataclass(frozen=True)
class ValuationModel:
    """Uniform distribution of customer valuations on [0, support_max].

    A customer's valuation is preference_degree * performance * gamma with
    preference degrees uniform on [0, 1], so support_max = performance * gamma.
    """

    support_max: float

    def __post_init__(self):
        require_positive("support_max", self.support_max)

    @classmethod
    def from_market(cls, curve: UtilityCurve, q: float, gamma: float) -> "ValuationModel":
        """Valuation distribution for a service built from q data units."""
        require_positive("gamma", gamma)
        r = require_positive(f"performance at data size {q}", data_utility(q, curve))
        return cls(support_max=r * gamma)


@dataclass(frozen=True)
class CustomerBid:
    """A sealed bid: what one customer reports it would pay for the service."""

    customer_id: str
    bid: float

    def __post_init__(self):
        require_positive("bid", self.bid, True)


@dataclass(frozen=True, eq=False)
class AuctionOutcome:
    """Allocations, payments, and gross profit of one auction run.

    Arrays are aligned with customer_ids.  Losers always pay zero, and
    gross_profit is total collected payments minus the data cost.
    """

    customer_ids: tuple[str, ...]
    allocations: np.ndarray
    payments: np.ndarray
    gross_profit: float

    def __post_init__(self):
        n = len(self.customer_ids)
        if len(set(self.customer_ids)) != n:
            raise ValueError("customer ids must be unique")
        if self.allocations.shape != (n,) or self.payments.shape != (n,):
            raise ValueError("allocations and payments must align with customer_ids")

    def index_of(self, customer_id: str) -> int:
        """Position of a customer in the outcome arrays."""
        try:
            return self.customer_ids.index(customer_id)
        except ValueError:
            raise KeyError(f"unknown customer {customer_id!r}") from None


def require_positive(name: str, value, allow_zero: bool = False):
    """value, checked to be finite and > 0 (>= 0), else a ValueError naming `name`.

    A Python float or int is checked and returned as it is, with no numpy:
    per-row record constructors call this.  A str, which numpy would parse,
    fails there with a TypeError.  Anything else is returned as a float array,
    checked on its one value if 0-d, else on its min and then its max; both
    reductions propagate NaN, so a NaN anywhere fails.
    """
    if type(value) is float or type(value) is int or isinstance(value, str):
        if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
            kind = "non-negative" if allow_zero else "positive"
            raise ValueError(f"{name}: must be {kind} and finite, got {value}")
        return value
    arr = np.asarray(value, dtype=float)
    for bound in (arr.min(), arr.max()) if arr.ndim else (arr,):
        require_positive(name, float(bound), allow_zero)
    return arr


def _unwrap(out):
    """A Python float for a scalar or 0-d result, else the array."""
    return out if getattr(out, "ndim", 0) else float(out)


def data_cost(q, k: float):
    """Cost k*q of buying q data units at unit cost k; q may be an array."""
    require_positive("k", k)
    with np.errstate(over="ignore"):  # an infinite cost is reported below
        cost = k * require_positive("data size", q, True)
    return _unwrap(require_positive("data cost k*q", cost, True))


def data_utility(q, curve: UtilityCurve):
    """Service performance a + b*ln(q) at data size q > 0; q may be an array.

    q = 0 means "no service" and is a case for callers, not for the curve.
    The value is deliberately not clamped to [0, 1]: the profit formulas use
    the raw logarithm, and clamping would break their closed forms.
    """
    return _unwrap(curve.a + curve.b * np.log(require_positive("data size", q)))


def valuation_cdf(v, model: ValuationModel):
    """P(valuation <= v): 0 below the support, linear on it, 1 above.

    Accepts scalars or arrays.
    """
    return _unwrap(np.clip(np.asarray(v, dtype=float) / model.support_max, 0.0, 1.0))


def sample_valuations(M: int, model: ValuationModel, seed: int) -> np.ndarray:
    """Draw M i.i.d. customer valuations; deterministic for a fixed seed."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    rng = np.random.default_rng(seed)
    # preference degrees uniform on [0, 1], scaled by the support
    return model.support_max * rng.random(int(M))
