"""CSV readers and writers for bids, predictions, experiment points, and sweeps.

All files are UTF-8 with a mandatory header row and `.` as decimal separator.
Emitted tables use a fixed 6-significant-digit format so outputs diff cleanly.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from .fitting import ExperimentPoint, PredictionRecord
from .market import CustomerBid

__all__ = [
    "BID_HEADER",
    "PREDICTION_HEADER",
    "POINT_HEADER",
    "SWEEP_HEADER",
    "read_bids",
    "read_predictions",
    "read_experiment_points",
    "write_sweep_csv",
    "format_sig",
]

BID_HEADER = ("customer_id", "bid")
PREDICTION_HEADER = ("y_true", "y_pred")
POINT_HEADER = ("q", "performance")
# the SweepResultRow field names, in column order
SWEEP_HEADER = (
    "value",
    "expected_profit",
    "optimal_price",
    "optimal_q",
    "empirical_mean",
    "empirical_std",
)


def format_sig(x: float) -> str:
    """Fixed 6-significant-digit rendering used in all emitted tables."""
    return f"{x:.6g}"


def _read_records(path, header: Sequence[str], record: Callable) -> list:
    """record(lineno, *fields) of every data row; its ValueError gets path:line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [cell.strip() for cell in first] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)!r}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                records.append(record(lineno, *row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no data rows after the header")
    return records


def _number(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"field {name} must be a number, got {value!r}") from None


def read_bids(path) -> list[CustomerBid]:
    """Load sealed bids from a `customer_id,bid` CSV file; ids must be unique."""
    first_line: dict[str, int] = {}

    def bid(lineno, cid, value):
        first = first_line.setdefault(cid, lineno)
        if first != lineno:
            raise ValueError(f"duplicate customer_id {cid!r}, first on line {first}")
        return CustomerBid(customer_id=cid, bid=_number("bid", value))

    return _read_records(path, BID_HEADER, bid)


def read_predictions(path) -> list[PredictionRecord]:
    """Load prediction pairs from a `y_true,y_pred` CSV file."""

    def record(_, y_true, y_pred):
        return PredictionRecord(_number("y_true", y_true), _number("y_pred", y_pred))

    return _read_records(path, PREDICTION_HEADER, record)


def read_experiment_points(path) -> list[ExperimentPoint]:
    """Load experiment points from a `q,performance` CSV file."""

    def point(_, q, alpha):
        return ExperimentPoint(q=_number("q", q), alpha=_number("performance", alpha))

    return _read_records(path, POINT_HEADER, point)


def write_sweep_csv(rows: Iterable, out: IO[str] | str | Path) -> None:
    """Write sweep result rows with the fixed sweep header."""
    own = isinstance(out, (str, Path))
    fh = open(out, "w", newline="", encoding="utf-8") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([format_sig(getattr(row, name)) for name in SWEEP_HEADER])
    finally:
        if own:
            fh.close()
