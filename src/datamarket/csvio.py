"""CSV readers, and the writers of every CLI output: tables and summaries.

All files are UTF-8 with a mandatory header row and `.` as decimal separator.
A reader returns a numpy structured array with one field per header name and
one element per data row, parsed in C by one np.loadtxt call, after checking
whole columns with the checks of the array cores that take them.  That call
reads the file by its path, in large chunks.  A file that call refuses or
might take wrongly, that fails a check, that holds a '"', whose name ends in
a suffix numpy decompresses, or that is not a regular file (a pipe), is read
by csv.reader, which only parses: the same checks, on the rows ahead of its
first parse fault and then ahead of each faulty row they name, find the
first faulty line.  Ahead of that, _scan bounds the runs of bytes without a
comma by csv.field_size_limit(), which np.loadtxt ignores, with bytes.find a
MiB at a time; in a file without quotes, such a run holds every field.

Tables are written as csv.writer writes them (QUOTE_MINIMAL quoting, "\r\n"
line ends), but _CHUNK_ROWS rows at a time: each float column's cells through
one %-template, then the chunk's cells and separators joined by one str.join,
with one write per chunk.  Every emitted float has the one number format,
_FLOAT_SPEC: 6 significant digits, so outputs diff cleanly.  A str column's
cells are written as they are, quoted where csv.writer would quote them, so a
caller whose column takes few values formats each value once: the auction
table's allocation and payment cells are one of two pairs, ("0", "0") and
("1", the price), picked per row from a 2-row table.
"""

from __future__ import annotations

import csv
import os
import stat
import warnings
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .auction import _checked_bids
from .fitting import _checked_points, _checked_predictions
from .market import _require_all
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
# rows a writer renders at a time: bounds the rows held as Python strings
_CHUNK_ROWS = 1024
# the one number format of every emitted float: 6 significant digits
_FLOAT_SPEC = ".6g"
# characters that make csv.writer (QUOTE_MINIMAL, "\r\n" line ends) quote a cell
_SPECIAL = (",", '"', "\r", "\n")
# bytes the C pass refuses: a quote, which would let a field hold commas and
# line ends, and the bytes np.loadtxt skips as whitespace around a number but
# float() refuses
_REFUSED = b'"\x1c\x1d\x1e\x1f'
# the suffixes of the files np.loadtxt, given a path, opens through a decompressor
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def format_sig(x: float) -> str:
    """Fixed 6-significant-digit rendering used in all emitted tables."""
    return format(x, _FLOAT_SPEC)


def _opened(out: Destination):
    """A context manager for out: the file at a path, opened here, or the stream."""
    if isinstance(out, (str, Path)):
        return open(out, "w", newline="", encoding="utf-8")
    return nullcontext(out)


def _read_records(path, header: Sequence[str], kinds: Sequence[type]) -> tuple:
    """(rows, lines, fault): path's data rows up to its first parse fault, as
    tuples of _field values in header order; the file line each ends on, lines
    in quoted fields counted; and that fault, naming path:line, else None: a
    wrong header or field count, a bad number, a byte not UTF-8, a csv.Error
    or no data rows."""
    rows, lines = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [cell.strip() for cell in first] != list(header):
                return rows, lines, ValueError(
                    f"{path}: expected header {','.join(header)!r}")
            for row in filter(None, reader):  # a blank line is an empty row
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                rows.append(tuple(map(_field, kinds, header, row)))
                lines.append(reader.line_num)
    except UnicodeDecodeError as exc:  # raised while reading, ahead of any line
        return rows, lines, ValueError(f"{path}: {exc}")
    except (ValueError, csv.Error) as exc:  # csv.Error: e.g. a field over the limit
        return rows, lines, ValueError(f"{path}:{reader.line_num}: {exc}")
    return rows, lines, None if rows else ValueError(
        f"{path}: no data rows after the header")


def _scan(path) -> bool:
    """Whether path's bytes fit csv.reader and float() as np.loadtxt reads them.

    loadtxt ignores csv.field_size_limit() and skips some bytes around a
    number, and the C pass reads no quotes, so no _REFUSED byte may occur,
    nor any run of bytes without a comma over the limit: with no quotes,
    every field lies inside such a run.  path is read a MiB at a time.  A
    run through a block's ends is carried from its last comma to the next
    block's first.  From a block's first comma to its last, windows of
    limit // 2 + 1 bytes are laid end to end: a run over the limit covers a
    whole one, so only the run through a window without a comma is measured,
    with bytes.rfind and find.  Only a regular file is read: any other, such
    as a pipe, can be read only once, so it does not fit and is left to the
    row reader.
    """
    limit = csv.field_size_limit()
    if not stat.S_ISREG(os.stat(path).st_mode):
        return False
    window = limit // 2 + 1
    run = 0  # the comma-free bytes that end what is read so far
    block = bytearray(1 << 20)  # one buffer: a fresh MiB per read costs more than the scan
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            del block[size:]  # a short read: only the bytes it read
            first, last = block.find(b","), block.rfind(b",")
            if first < 0:
                run += len(block)
            elif run + first > limit:
                return False
            else:
                run = len(block) - last - 1
            if run > limit or any(map(block.__contains__, _REFUSED)):
                return False
            for start in range(first + 1, last, window):  # the windows between them
                if block.find(b",", start, start + window) < 0:
                    if block.find(b",", start) - block.rfind(b",", 0, start) > limit + 1:
                        return False
    return True


def _read_table(path, header: Sequence[str], kinds: Sequence[type],
                check: Callable) -> np.ndarray:
    """path's data rows as a structured array, once check takes its columns.

    check(lines, *columns) raises a ValueError, whose `index` is the rule's
    first faulty row, if columns (in header order) break a rule; lines holds
    each row's file line, or is None.  One np.loadtxt call parses the file in
    C.  A file with a suffix in _COMPRESSED, whose bytes fail _scan, whose
    first line is not the header, or that call or check refuses, is parsed by
    _read_records; check judges its rows, then the rows ahead of each fault
    it names, until it passes, at most once a rule plus once.  The last fault
    named, the first faulty row's under the first rule it breaks, is raised
    with path:line.  If no row fails, the parse fault, if any, is raised.

    np.loadtxt reads a path in large chunks but a handle line by line, so it
    is given the path, with "./" ahead of a relative one so that numpy reads
    no URL scheme into it (os.path.abspath would resolve "link/.." wrongly).
    """
    dtype = np.dtype(list(zip(header, kinds)))
    name = os.path.join(os.curdir, os.fsdecode(path))
    # a pipe fails _scan unread: it can be read only once, by the row reader
    if os.path.splitext(name)[1] not in _COMPRESSED and _scan(path):
        try:
            with (open(path, newline="", encoding="utf-8") as fh,
                  warnings.catch_warnings()):
                warnings.simplefilter("ignore")  # the UserWarning of a file with no rows
                if [cell.strip() for cell in fh.readline().split(",")] == list(header):
                    table = np.loadtxt(name, dtype, comments=None, delimiter=",",
                                       ndmin=1, skiprows=1, encoding="utf-8")
                    if len(table):
                        check(None, *(table[field] for field in header))
                        return table
        except ValueError:  # any fault; UnicodeDecodeError is a ValueError
            pass
    rows, lines, fault = _read_records(path, header, kinds)
    table = np.array(rows, dtype)
    failure, n = None, len(table)
    while True:  # check the rows ahead of the last fault found, until none fails
        try:
            check(lines[:n], *(table[field][:n] for field in header))
            break
        except ValueError as exc:
            failure, n = exc, exc.index
    if failure is not None:
        raise ValueError(f"{path}:{lines[n]}: {failure}")
    if fault is not None:
        raise fault
    return table


def _field(kind: type, name: str, cell: str):
    """A CSV cell as a field of kind: a float parsed by float(), else the cell."""
    try:
        return float(cell) if kind is float else cell
    except ValueError:
        raise ValueError(f"field {name} must be a number, got {cell!r}") from None


def read_bids(path) -> np.ndarray:
    """Sealed bids from a `customer_id,bid` CSV file, one row per bid.

    Returns a structured array with the fields of BID_HEADER: customer_id
    (str objects, unique) and bid (float, finite and non-negative).
    """

    def check(lines, ids, bids):
        if len(set(ids)) != len(ids):  # lines is None in the C pass
            ok = np.zeros(len(ids), dtype=bool)
            ok[np.unique(ids, return_index=True)[1]] = True  # each id's first row
            _require_all(ok, lambda i: f"duplicate customer_id {ids[i]!r}, first on line "
                                       f"{lines and lines[ids.tolist().index(ids[i])]}")
        _checked_bids(bids)

    return _read_table(path, BID_HEADER, (object, float), check)


def read_predictions(path) -> np.ndarray:
    """Prediction pairs from a `y_true,y_pred` CSV file, one row per pair.

    Returns a structured array with the float fields of PREDICTION_HEADER,
    all finite.
    """
    return _read_table(path, PREDICTION_HEADER, (float, float),
                       lambda _, *columns: _checked_predictions(*columns))


def read_experiment_points(path) -> np.ndarray:
    """Experiment points from a `q,performance` CSV file, one row per point.

    Returns a structured array with the float fields of POINT_HEADER: q
    finite and positive, performance in [0, 1].
    """
    return _read_table(path, POINT_HEADER, (float, float),
                       lambda _, *columns: _checked_points(*columns))


def _cells(column, start: int, stop: int) -> list:
    """Rows start:stop of column as Python objects: they format faster than numpy's."""
    part = column[start:stop]
    return part.tolist() if isinstance(part, np.ndarray) else part


def _quoted(cells, lone: bool):
    """cells, with each one that csv.writer would quote quoted as it does.

    A cell holding a _SPECIAL character is wrapped in '"' with each '"'
    doubled; so is an empty cell that is its row's lone field.
    """
    joined = "".join(cells)
    if not any(char in joined for char in _SPECIAL) and not (lone and "" in cells):
        return cells
    return ['"%s"' % cell.replace('"', '""')
            if any(char in cell for char in _SPECIAL) or (lone and not cell) else cell
            for cell in cells]


def _rendered(kind: type, cells: list, lone: bool) -> list:
    """A chunk of one column's cells as the str cells csv.writer would write.

    Floats are formatted through one %-template split at its commas, which
    no format_sig number holds; str cells are quoted where csv.writer would
    quote them, and any other kind (int, bool) is written with str.
    """
    if issubclass(kind, float):
        template = ",".join([f"%{_FLOAT_SPEC}"] * len(cells))
        return (template % tuple(cells)).split(",")
    if issubclass(kind, str):
        return _quoted(cells, lone)
    return list(map(str, cells))


def write_table(header: Sequence[str], columns: Sequence, out: Destination) -> None:
    """Write a CSV table of equal-length columns to a path or an open text stream.

    The bytes are csv.writer's (QUOTE_MINIMAL, "\r\n" line ends) with every
    float cell in the format_sig format.  A column's kind is its first cell's
    (see _rendered).  Rows are rendered _CHUNK_ROWS at a time, each column's
    cells in one call, laid into one list between their separators and
    joined, and written with one write per chunk, so only one chunk is ever
    held as strings.  A header whose length is not the column count, or
    columns of unequal lengths, are refused with a ValueError before out is
    opened.
    """
    lengths = [len(column) for column in columns]
    if len(header) != len(columns):
        raise ValueError(f"expected one header name per column, got {len(header)} "
                         f"for {len(columns)} columns")
    if len(set(lengths)) > 1:
        raise ValueError(f"expected columns of equal length, got lengths {lengths}")
    rows = lengths[0] if lengths else 0
    kinds = [type(_cells(column, 0, 1)[0]) for column in columns] if rows else []
    lone = len(columns) == 1
    width = 2 * len(columns)  # a row's cells, each followed by "," or "\r\n"
    with _opened(out) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, rows, _CHUNK_ROWS):
            cells = [_rendered(kind, _cells(column, start, start + _CHUNK_ROWS), lone)
                     for kind, column in zip(kinds, columns)]
            parts = [","] * (width * len(cells[0]))
            parts[width - 1::width] = ["\r\n"] * len(cells[0])
            for j, part in enumerate(cells):
                parts[2 * j::width] = part
            fh.write("".join(parts))


def write_sweep_csv(rows: Iterable, out: Destination) -> None:
    """Write sweep result rows with the fixed sweep header."""
    rows = list(rows)
    columns = [[getattr(row, name) for row in rows] for name in SWEEP_HEADER]
    write_table(SWEEP_HEADER, columns, out)


def write_summary(summary: Mapping[str, object], out: Destination) -> None:
    """Write `key = value` lines: floats through format_sig, flags as true/false."""
    with _opened(out) as fh:
        for key, value in summary.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = format_sig(value)
            fh.write(f"{key} = {value}\n")
