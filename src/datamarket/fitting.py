"""Prediction-quality metric and least-squares fitting of the utility curve.

Each function takes its records as aligned one-dimensional numpy arrays, one
per field, and checks them: a column that is not one-dimensional, unequal
lengths or a value out of range is a ValueError naming the field.  Only
market.data_utility evaluates the curve a + b*ln(q).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .market import UtilityCurve, _real, _reals, _require_all, data_utility, require_positive

__all__ = [
    "FitReport",
    "hit_rate",
    "least_squares_fit",
    "evaluate_fit",
]


@dataclass(frozen=True)
class FitReport:
    """Fitted utility curve plus its root-mean-square residual.

    A curve with slope <= 0 is still reported for inspection, with a warning,
    but profit optimization will refuse it.
    """

    curve: UtilityCurve
    rmse: float
    n_points: int


def _require_columns(names: str, first, second) -> None:
    shape, other = np.shape(first), np.shape(second)
    if len(shape) != 1 or len(other) != 1:
        raise ValueError(f"{names} must be one-dimensional, got shapes {shape} and {other}")
    if shape != other:
        raise ValueError(f"{names} must have equal lengths, got {shape[0]} and {other[0]}")


def _checked_predictions(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    """y_true and y_pred as aligned float arrays of finite pairs."""
    y_true, y_pred = _reals("y_true", y_true), _reals("y_pred", y_pred)
    _require_columns("y_true and y_pred", y_true, y_pred)
    _require_all(np.isfinite(y_true) & np.isfinite(y_pred),
                 lambda i: f"prediction values must be finite, "
                           f"got ({float(y_true[i])}, {float(y_pred[i])})")
    return y_true, y_pred


def _checked_points(q, alpha) -> tuple[np.ndarray, np.ndarray]:
    """q and alpha as aligned float arrays: q finite and positive, alpha in [0, 1]."""
    q, alpha = _reals("data size", q), _reals("performance", alpha)
    _require_columns("q and alpha", q, alpha)
    q = require_positive("data size", q)
    _require_all((alpha >= 0.0) & (alpha <= 1.0),  # NaN fails both
                 lambda i: f"performance must lie in [0, 1], got {float(alpha[i])}")
    return q, alpha


def hit_rate(y_true: np.ndarray, y_pred: np.ndarray, tau: float) -> float:
    """Fraction of aligned finite pairs with |y_true - y_pred| < tau: the
    satisfaction rate of the predictions y_pred of y_true."""
    y_true, y_pred = _checked_predictions(y_true, y_pred)
    if len(y_true) == 0:
        raise ValueError("records must be non-empty")
    tau = require_positive("tolerance", _real("tolerance", tau))
    with np.errstate(over="ignore"):  # an infinite error is simply no hit
        hits = np.count_nonzero(np.abs(y_true - y_pred) < tau)
    return int(hits) / len(y_true)  # a Python float, as every scalar result


def least_squares_fit(q: np.ndarray, alpha: np.ndarray) -> FitReport:
    """Fit alpha = a + b*ln(q) to aligned arrays of positive q by least squares.

    The model is linear in (a, b) once q is log-transformed, so the exact
    minimizer of the mean squared residual comes from the 2x2 normal
    equations; no iterative solver, no starting point, no tolerances.
    """
    q, alpha = _checked_points(q, alpha)
    if len(q) < 2:
        raise ValueError(f"need at least 2 experiment points, got {len(q)}")
    x = np.log(q)
    if x.min() == x.max():
        raise ValueError("need at least 2 distinct data sizes to identify a slope")

    xc = x - x.mean()
    b = float((xc * (alpha - alpha.mean())).sum() / (xc * xc).sum())
    a = float(alpha.mean() - b * x.mean())
    curve = UtilityCurve(a=a, b=b)
    if b <= 0:
        warnings.warn("fitted slope is not positive; profit optimization "
                      "will refuse this curve", stacklevel=2)
    return FitReport(curve=curve, rmse=evaluate_fit(curve, q, alpha), n_points=len(q))


def evaluate_fit(curve: UtilityCurve, q: np.ndarray, alpha: np.ndarray) -> float:
    """Root-mean-square residual of a curve against aligned arrays of data
    sizes q and performances alpha."""
    q, alpha = _checked_points(q, alpha)
    if len(q) == 0:
        raise ValueError("points must be non-empty")
    return float(np.sqrt(np.mean(np.square(alpha - data_utility(q, curve)))))
