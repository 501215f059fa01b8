"""Fit the diminishing-returns utility curve from noisy experiment points.

A service team measures performance at a handful of training-set sizes,
then wants the smooth law performance = a + b*ln(q) behind those points.
"""

import numpy as np

from datamarket import UtilityCurve, data_utility, evaluate_fit, least_squares_fit

rng = np.random.default_rng(7)

# ground truth we pretend not to know (close to the taxi trip-time service)
truth = UtilityCurve(a=0.4944, b=0.0079)

# the experiment points: data sizes q and the performance measured at each
sizes = np.array([1, 2, 5, 10, 20, 35, 50, 70, 85, 100], dtype=float)
performance = data_utility(sizes, truth) + rng.normal(scale=0.002, size=sizes.size)

print("measured experiment points:")
for q, alpha in zip(sizes, performance):
    print(f"  q = {q:6.1f}   performance = {alpha:.4f}")

report = least_squares_fit(sizes, performance)
print("\nleast-squares fit of performance = a + b*ln(q):")
print(f"  a     = {report.curve.a:.4f}   (truth {truth.a})")
print(f"  b     = {report.curve.b:.5f}  (truth {truth.b})")
print(f"  rmse  = {report.rmse:.5f} over {report.n_points} points")
print(f"  truth curve rmse on the same points = "
      f"{evaluate_fit(truth, sizes, performance):.5f}")

print("\nextrapolated performance:")
for q in (150.0, 300.0, 1000.0):
    print(f"  r({q:6.0f}) = {data_utility(q, report.curve):.4f}")
