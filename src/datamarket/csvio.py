"""CSV readers, and the writers of every CLI output: tables and summaries.

All files are UTF-8 with a mandatory header row and `.` as decimal separator.
Emitted values use a fixed 6-significant-digit format so outputs diff cleanly.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

from .fitting import ExperimentPoint, PredictionRecord
from .market import CustomerBid
from .simulate import SweepResultRow

__all__ = [
    "BID_HEADER",
    "PREDICTION_HEADER",
    "POINT_HEADER",
    "SWEEP_HEADER",
    "read_bids",
    "read_predictions",
    "read_experiment_points",
    "write_table",
    "write_sweep_csv",
    "write_summary",
    "format_sig",
]

BID_HEADER = ("customer_id", "bid")
PREDICTION_HEADER = ("y_true", "y_pred")
POINT_HEADER = ("q", "performance")
# one column per SweepResultRow field, in field order
SWEEP_HEADER = tuple(field.name for field in fields(SweepResultRow))
# where a writer's output goes: a path, or an open text stream
Destination = IO[str] | str | Path


def format_sig(x: float) -> str:
    """Fixed 6-significant-digit rendering used in all emitted tables."""
    return f"{x:.6g}"


@contextmanager
def _opened(out: Destination):
    """A text stream for out: the file at a path (opened here) or the stream itself."""
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield out


def _read_records(path, header: Sequence[str], record: Callable) -> list:
    """record(line, *fields) of every data row; its ValueError gets path:line.

    line is the file line the row ends on, so lines inside quoted fields count.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [cell.strip() for cell in first] != list(header):
                raise ValueError(f"{path}: expected header {','.join(header)!r}")
            records = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    records.append(record(reader.line_num, *row))
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised while reading, ahead of any line
        raise ValueError(f"{path}: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
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

    def bid(line, cid, value):
        first = first_line.setdefault(cid, line)
        if first != line:
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


def write_table(header: Sequence[str], columns: Sequence, out: Destination) -> None:
    """Write a CSV table of equal-length columns to a path or an open text stream."""
    # format by column, not by cell: a column of floats has a float first
    cells = [map(format_sig, column) if len(column) and isinstance(column[0], float)
             else column for column in columns]
    with _opened(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_sweep_csv(rows: Iterable, out: Destination) -> None:
    """Write sweep result rows with the fixed sweep header."""
    columns = zip(*([getattr(row, name) for name in SWEEP_HEADER] for row in rows))
    write_table(SWEEP_HEADER, list(columns), out)


def write_summary(summary: Mapping[str, object], out: Destination) -> None:
    """Write `key = value` lines: floats through format_sig, flags as true/false."""
    with _opened(out) as fh:
        for key, value in summary.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = format_sig(value)
            fh.write(f"{key} = {value}\n")
