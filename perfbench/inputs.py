"""Seeded CSV inputs for the csv_batch workload, derived from the workload seed only.

Floats are written with repr, so the files parse back to exactly the arrays
the oracles are given.
"""

from __future__ import annotations

import numpy as np

from oracles import auction_threshold

ROWS = 100_000


def _write(path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def make_inputs(seed: int, workdir, sc, rows: int = ROWS) -> dict[str, np.ndarray]:
    """Write bids.csv, points.csv and predictions.csv into workdir; return their arrays.

    Bids: uniform up to 1.25 times the valuation support s, so some lie above
    it, with 1% set exactly to the threshold s/2.  Points: the scenario's
    utility curve a + b*ln(q) plus Gaussian noise.  Predictions: errors
    normal with scale tau, so they fall on both sides of tau.
    """
    rng = np.random.default_rng([seed, 0xC5B])
    threshold = auction_threshold(sc)
    bids = rng.uniform(0.0, 2.5 * threshold, rows)
    bids[rng.choice(rows, rows // 100, replace=False)] = threshold
    _write(workdir / "bids.csv", "customer_id,bid",
           (f"c{i},{v!r}" for i, v in enumerate(bids.tolist())))

    q = rng.uniform(0.5, sc["N"], rows)
    performance = np.clip(
        sc["a"] + sc["b"] * np.log(q) + rng.normal(0.0, 0.01, rows), 0.0, 1.0
    )
    _write(workdir / "points.csv", "q,performance",
           (f"{x!r},{y!r}" for x, y in zip(q.tolist(), performance.tolist())))

    y_true = rng.uniform(60.0, 3600.0, rows)
    y_pred = y_true + rng.normal(0.0, sc["tau"], rows)
    _write(workdir / "predictions.csv", "y_true,y_pred",
           (f"{x!r},{y!r}" for x, y in zip(y_true.tolist(), y_pred.tolist())))

    return {"bids": bids, "q": q, "performance": performance,
            "y_true": y_true, "y_pred": y_pred}
