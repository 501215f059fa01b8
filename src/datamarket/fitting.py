"""Prediction-quality metric and least-squares fitting of the utility curve."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import UtilityCurve, data_utility, require_positive

__all__ = [
    "PredictionRecord",
    "ExperimentPoint",
    "FitReport",
    "satisfaction_rate",
    "fit_utility",
    "evaluate_fit",
]


@dataclass(frozen=True)
class PredictionRecord:
    """One (true value, predicted value) pair from a model evaluation run."""

    y_true: float
    y_pred: float

    def __post_init__(self):
        if not (math.isfinite(self.y_true) and math.isfinite(self.y_pred)):
            raise ValueError(
                f"prediction values must be finite, got ({self.y_true}, {self.y_pred})"
            )


@dataclass(frozen=True)
class ExperimentPoint:
    """Measured performance alpha in [0, 1] at training data size q."""

    q: float
    alpha: float

    def __post_init__(self):
        require_positive("data size", self.q)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"performance must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class FitReport:
    """Fitted utility curve plus its root-mean-square residual.

    A curve with slope <= 0 is still reported for inspection, with a warning,
    but profit optimization will refuse it.
    """

    curve: UtilityCurve
    rmse: float
    n_points: int


def satisfaction_rate(records: Sequence[PredictionRecord], tau: float) -> float:
    """Fraction of predictions with absolute error strictly below tau."""
    if len(records) == 0:
        raise ValueError("records must be non-empty")
    require_positive("tolerance", tau)
    hits = sum(1 for r in records if abs(r.y_true - r.y_pred) < tau)
    return hits / len(records)


def fit_utility(points: Sequence[ExperimentPoint]) -> FitReport:
    """Fit performance = a + b*ln(q) to experiment points by least squares.

    The model is linear in (a, b) once q is log-transformed, so the exact
    minimizer of the mean squared residual comes from the 2x2 normal
    equations; no iterative solver, no starting point, no tolerances.
    """
    if len(points) < 2:
        raise ValueError(f"need at least 2 experiment points, got {len(points)}")
    q, y = _columns(points)
    x = np.log(q)
    if np.unique(x).size < 2:
        raise ValueError("need at least 2 distinct data sizes to identify a slope")

    xc = x - x.mean()
    b = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
    a = float(y.mean() - b * x.mean())
    curve = UtilityCurve(a=a, b=b)
    if b <= 0:
        warnings.warn("fitted slope is not positive; profit optimization "
                      "will refuse this curve", stacklevel=2)
    return FitReport(curve=curve, rmse=_rmse(curve, q, y), n_points=len(points))


def evaluate_fit(curve: UtilityCurve, points: Sequence[ExperimentPoint]) -> float:
    """Root-mean-square residual of a curve against experiment points."""
    if len(points) == 0:
        raise ValueError("points must be non-empty")
    return _rmse(curve, *_columns(points))


def _columns(points: Sequence[ExperimentPoint]) -> tuple[np.ndarray, np.ndarray]:
    """The data sizes and the performances of the points, as two arrays."""
    n = len(points)
    return (np.fromiter((p.q for p in points), dtype=float, count=n),
            np.fromiter((p.alpha for p in points), dtype=float, count=n))


def _rmse(curve: UtilityCurve, q: np.ndarray, alpha: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(alpha - data_utility(q, curve)))))
