import csv
import io
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from datamarket import SweepResultRow, csvio, load_scenario, taxi_scenario_path
from datamarket.cli import cli_main
from datamarket.csvio import (
    BID_HEADER,
    POINT_HEADER,
    PREDICTION_HEADER,
    SWEEP_HEADER,
    format_sig,
    read_bids,
    read_experiment_points,
    read_predictions,
    write_summary,
    write_sweep_csv,
    write_table,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadBids:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "bids.csv", "customer_id,bid\nalice,0.30\nbob,0.10\n")
        bids = read_bids(path)
        assert bids.dtype.names == BID_HEADER
        assert bids["customer_id"].tolist() == ["alice", "bob"]
        assert bids["bid"].tolist() == [0.3, 0.1]

    def test_wrong_header_rejected(self, tmp_path):
        path = write(tmp_path, "bids.csv", "id,amount\nalice,0.30\n")
        with pytest.raises(ValueError, match="expected header"):
            read_bids(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = write(tmp_path, "bids.csv", "customer_id,bid\nalice,0.30\nbob,lots\n")
        with pytest.raises(ValueError, match=r":3:"):
            read_bids(path)

    def test_negative_bid_reports_line(self, tmp_path):
        path = write(tmp_path, "bids.csv", "customer_id,bid\nalice,-0.30\n")
        with pytest.raises(ValueError, match=r":2:.*non-negative"):
            read_bids(path)

    def test_short_row_rejected(self, tmp_path):
        path = write(tmp_path, "bids.csv", "customer_id,bid\nalice\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_bids(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = write(
            tmp_path, "bids.csv", "customer_id,bid\nalice,0.30\nbob,0.1\nalice,0.2\n"
        )
        with pytest.raises(
            ValueError, match=r"bids\.csv:4: duplicate customer_id 'alice', first on line 2"
        ):
            read_bids(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = write(tmp_path, "bids.csv", "customer_id,bid\nalice,0.30\n\nbob,0.10\n")
        assert len(read_bids(path)) == 2


class TestReadPredictions:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "preds.csv", "y_true,y_pred\n600,630\n900,1200\n")
        records = read_predictions(path)
        assert records.dtype.names == PREDICTION_HEADER
        assert records["y_true"].tolist() == [600.0, 900.0]
        assert records["y_pred"].tolist() == [630.0, 1200.0]

    def test_invalid_record_reports_line(self, tmp_path):
        path = write(tmp_path, "preds.csv", "y_true,y_pred\n600,630\n900,nan\n")
        with pytest.raises(ValueError, match=r"preds\.csv:3: .*finite"):
            read_predictions(path)

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "preds.csv", "600,630\n")
        with pytest.raises(ValueError, match="expected header"):
            read_predictions(path)


class TestReadExperimentPoints:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "points.csv", "q,performance\n10,0.51\n100,0.53\n")
        points = read_experiment_points(path)
        assert points.dtype.names == POINT_HEADER
        assert points["q"].tolist() == [10.0, 100.0]
        assert points["performance"].tolist() == [0.51, 0.53]

    def test_out_of_range_performance_reports_line(self, tmp_path):
        path = write(tmp_path, "points.csv", "q,performance\n10,1.51\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_experiment_points(path)


@pytest.mark.parametrize(
    "reader, header",
    [(read_bids, "customer_id,bid"), (read_predictions, "y_true,y_pred"),
     (read_experiment_points, "q,performance")],
)
def test_header_only_file_rejected(tmp_path, reader, header):
    path = write(tmp_path, "empty.csv", header + "\n\n")
    with pytest.raises(ValueError, match=r"empty\.csv: no data rows"):
        reader(path)


# each file has a quoted field spanning lines 2-3 and a bad row on line 4
MULTI_LINE = [
    (read_bids, 'customer_id,bid\n"a\nb",0.5\nc,-1\n'),
    (read_predictions, 'y_true,y_pred\n"600\n",630\n900,nan\n'),
    (read_experiment_points, 'q,performance\n"1\n",0.5\n10,2\n'),
]


@pytest.mark.parametrize("reader, text", MULTI_LINE, ids=("bids", "predictions", "points"))
def test_line_numbers_count_lines_inside_quoted_fields(tmp_path, reader, text):
    path = write(tmp_path, "multi.csv", text)
    with pytest.raises(ValueError, match=r"multi\.csv:4: "):
        reader(path)


@pytest.mark.parametrize("reader, text", MULTI_LINE, ids=("bids", "predictions", "points"))
def test_field_over_the_csv_size_limit_names_its_line(tmp_path, reader, text):
    header = text.split("\n", 1)[0]
    path = write(tmp_path, "huge.csv", f"{header}\n1,1\n{'9' * 131073},1\n")
    with pytest.raises(ValueError,
                       match=r"huge\.csv:3: field larger than field limit \(131072\)"):
        reader(path)


@pytest.mark.parametrize(
    "reader, text",
    [(read_bids, "customer_id,bid\nalice,0.3\n"),
     (read_predictions, "y_true,y_pred\n1,2\n"),
     (read_experiment_points, "q,performance\n1,0.5\n"),
     (load_scenario, "M = 10\nk = 1\n")],
)
def test_non_utf8_file_is_named(tmp_path, reader, text):
    path = tmp_path / "latin.txt"
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ")
    assert "can't decode byte 0xff" in message


# The C pass (one np.loadtxt call) takes a file only where the row-by-row
# reader would take it with the same values; the row reader words every error.
# These tests hold the two to one decision per file.
READERS = {read_bids: BID_HEADER, read_predictions: PREDICTION_HEADER,
           read_experiment_points: POINT_HEADER}
HUGE = b"9" * 131073
# a finite number one character over csv.field_size_limit()
FINITE_HUGE = b"0." + b"0" * 131072 + b"1"


def read(reader, path):
    """reader(path): (table, None), or (None, message) if it refuses the file."""
    try:
        return reader(path), None
    except ValueError as exc:
        return None, str(exc)


def read_rows(reader, path):
    """What the row-by-row reader alone makes of path: (table, None) or
    (None, message).  _scan's False must send path to the row reader."""
    with (mock.patch.object(csvio, "_scan", return_value=False),
          mock.patch.object(csvio, "_read_records", wraps=csvio._read_records) as rows):
        result = read(reader, path)
    rows.assert_called_once()
    return result


def assert_same_decision(reader, path):
    table, message = read(reader, path)
    rows, row_message = read_rows(reader, path)
    assert (table is None) == (rows is None), (message, row_message)
    assert message == row_message
    if table is not None:
        assert table.dtype == rows.dtype and table.dtype.names == READERS[reader]
        assert len(table) == len(rows)
        for field in table.dtype.names:
            if table[field].dtype == object:
                assert table[field].tolist() == rows[field].tolist()
            else:
                assert list(map(float.hex, table[field].tolist())) == list(
                    map(float.hex, rows[field].tolist()))


# cells every column takes (one in Arabic-Indic digits, which float() reads
# and np.loadtxt does not, and quoted ones spanning lines), and cells that
# some column or every column refuses (id0 repeats the first bid id; \x1c is
# whitespace to np.loadtxt but not to float(); quotes in odd places and a #)
GOOD = tuple(cell.encode() for cell in
             ("0.5", "1", " 0.25 ", "0_0.75", "1e-300", '"0.5\n"', "٠.٧٥",
              '"\n\r\n0.5 \r"'))
BAD = tuple(cell.encode() for cell in
            ("0", "-0", "-1", "1_0", "1e308", "1e999", "inf", "-inf", "nan", "", "x",
             "id0", '"a\nb"', '"1,5"', "1#", "#", "1\x1c", '"a""b"', '"ab"c', 'a"b',
             ' "a"'))
# rows a fault inserts: a blank line, a row cut short or too long, a bad UTF-8
# byte and a field over the csv module's size limit, infinite or finite
ROWS = {"blank": [], "short": [b"1"], "long": [b"1"] * 3, "utf8": [b"1", b"\xff"],
        "huge": [b"1", HUGE], "finite": [b"1", FINITE_HUGE]}


@st.composite
def csv_files(draw):
    """A reader and the bytes of a valid file for it, with up to two faults:
    a cell replaced by one from BAD, an inserted row from ROWS, or a wrong
    header.  Lines end in LF, CRLF or a bare CR, and the header may be
    quoted across two lines."""
    reader = draw(st.sampled_from(list(READERS)))
    first, second = (name.encode() for name in READERS[reader])
    header = draw(st.sampled_from([b"%s,%s" % (first, second),
                                   b'"%s\n",%s' % (first, second)]))
    good = st.sampled_from(GOOD)
    rows = [[b"id%d" % i if reader is read_bids else draw(good), draw(good)]
            for i in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("cell",) * 3 + tuple(ROWS) + ("header",)))
        i = draw(st.integers(0, len(rows)))
        if fault == "header":
            header = b"y," + header
        elif fault == "cell" and i < len(rows) and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(BAD))
        else:
            rows.insert(i, list(ROWS.get(fault, [b"1", draw(st.sampled_from(BAD))])))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return reader, end.join([header, *map(b",".join, rows)]) + end


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(file=(read_bids, b"customer_id,bid\nid0,0.5\n\nid1,1_0\n"))
@example(file=(read_experiment_points, b'q,performance\n"1\n",0.5\n 2 ,1\n'))
@example(file=(read_predictions, b"y_true,y_pred\n1e308,-1e308\ninf,1\nx,1\n"))
@example(file=(read_bids, b"customer_id,bid\na,x\n\xff\n"))
@example(file=(read_bids, b"customer_id,bid\n#a,1\na#,0.5\n"))
@example(file=(read_predictions, b"y_true,y_pred\n1,2#\n"))
@example(file=(read_predictions, "y_true,y_pred\n١,٢.٥\n".encode()))
@example(file=(read_bids, b"customer_id,bid\rid0,0.5\r\rid1,1\r"))
@example(file=(read_predictions, b'"y_true\n",y_pred\n1,2\n'))
@example(file=(read_experiment_points, b'q,performance\n"\n\n1\r\n",0.5\n'))
@example(file=(read_predictions, b"y_true,y_pred\n1,%s\n" % FINITE_HUGE))
@example(file=(read_predictions, b"y_true,y_pred\n1,\x1c2\n"))
@example(file=(read_bids, b"customer_id,bid\na\x1cb,2\n"))
@example(file=(read_bids, b"customer_id,bid\nid0,0.5\n"))
@example(file=(read_bids, b"customer_id,bid\n"))
@example(file=(read_bids, b'customer_id,bid\n"a\rb",0.5\nid1,1\n'))
@example(file=(read_bids, b'customer_id,bid\n"a\r\nb",0.5\nid1,1\n'))
@example(file=(read_bids, b'customer_id,bid\n"a\r""b",0.5\nid1,1\n'))
@example(file=(read_bids, b'customer_id,bid\r\n"a\rb",0.5\r\nid1,1\r\n'))
@example(file=(read_bids, b'customer_id,bid\r\n"a\r\nb",0.5\r\nid1,1\r\n'))
@example(file=(read_bids, b'customer_id,bid\r\n"a\r""b",0.5\r\nid1,1\r\n'))
@example(file=(read_bids, b'customer_id,bid\r"a\rb",0.5\rid1,1\r'))
@example(file=(read_bids, b'customer_id,bid\r"a\r\nb",0.5\rid1,1\r'))
@example(file=(read_bids, b'customer_id,bid\r"a\r""b",0.5\rid1,1\r'))
@given(file=csv_files())
def test_column_pass_decides_as_the_row_reader(tmp_path, file):
    reader, data = file
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    assert_same_decision(reader, path)


def c_pass_only(reader, path):
    """reader(path) with the row reader switched off: the C pass must take it."""
    with mock.patch.object(csvio, "_read_records",
                           side_effect=AssertionError("the row reader ran")):
        return reader(path)


def rows_only(reader, path):
    """reader(path) with np.loadtxt switched off: the row reader must take it."""
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt ran")):
        return reader(path)


# files csv.reader and np.loadtxt part alike: blank lines, padded numbers, any
# line end, one row
@pytest.mark.parametrize("reader, data", [
    (read_bids, b"customer_id,bid\rid0,0.5\r\rid1,1\r"),
    (read_bids, b"customer_id,bid\nid0,0.5"),
    (read_predictions, b" y_true , y_pred \n\n-1e-300,\t1e300\n"),
], ids=("bare-cr", "one-row", "padded"))
def test_the_c_pass_takes_what_the_row_reader_takes(tmp_path, reader, data):
    path = tmp_path / "plain.csv"
    path.write_bytes(data)
    assert len(c_pass_only(reader, path))
    assert_same_decision(reader, path)


# a '"' lets a field hold commas and line ends, which no comma-free run bounds,
# so a file holding one is read by the row reader alone: quoted ids holding
# commas, quotes and line ends, a quoted number spanning lines, a quote past
# the first MiB, and quotes where csv.reader takes them as plain characters
@pytest.mark.parametrize("reader, data", [
    (read_bids,
     b'customer_id,bid\r\n"a,""b""\r\nc",0.5\r\n\r\n"ab"c, 1 \r\nd"e,"\n2\n"\r\n'),
    (read_experiment_points, b'q,performance\n"\n1\n",0\n1e308,1\n'),
    (read_predictions, b"y_true,y_pred\n" + b"1,%s1\n" % (b" " * 100000) * 11
     + b'"2",1\n'),
    (read_bids, b'customer_id,bid\na"b,1\nc",0.5\n'),
], ids=("quoted-crlf", "multi-line", "past-a-mib", "bare-quotes"))
def test_a_file_holding_a_quote_never_reaches_loadtxt(tmp_path, reader, data):
    path = tmp_path / "quoted.csv"
    path.write_bytes(data)
    assert csvio._scan(path) is False
    assert len(rows_only(reader, path))
    assert_same_decision(reader, path)


@pytest.mark.parametrize("reader", list(READERS), ids=("bids", "predictions", "points"))
def test_finite_number_over_the_csv_size_limit_names_its_line(tmp_path, reader):
    header = ",".join(READERS[reader]).encode()
    path = tmp_path / "huge.csv"
    path.write_bytes(header + b"\n1,1\n2," + FINITE_HUGE + b"\n")
    with pytest.raises(ValueError,
                       match=r"huge\.csv:3: field larger than field limit \(131072\)"):
        reader(path)


# a field of exactly csv.field_size_limit() characters, and one of one more:
# a quoted id of commas, whose runs of comma-free bytes are short; an unquoted
# id, whose run also holds the header's last field and line end, so only the
# row reader takes it; and a number ending the file, whose run of comma-free
# bytes is the number itself
@pytest.mark.parametrize("reader, field, row, value, taken", [
    (read_bids, "customer_id", lambda n: b'"' + b"," * n + b'",1', lambda n: "," * n,
     rows_only),
    (read_bids, "customer_id", lambda n: b"a" * n + b",1", lambda n: "a" * n, rows_only),
    (read_predictions, "y_pred", lambda n: b"1," + b"0" * (n - 1) + b"1", lambda n: 1.0,
     c_pass_only),
], ids=("quoted-id", "id", "number"))
def test_a_field_at_the_csv_size_limit_is_taken_and_one_past_it_refused(
        tmp_path, reader, field, row, value, taken):
    limit = csv.field_size_limit()
    header = ",".join(READERS[reader]).encode()
    path = tmp_path / "limit.csv"
    path.write_bytes(header + b"\n" + row(limit))
    assert taken(reader, path)[field].tolist() == [value(limit)]
    path.write_bytes(header + b"\n" + row(limit + 1))
    with pytest.raises(ValueError, match=rf"limit\.csv:2: field larger than field "
                                         rf"limit \({limit}\)"):
        reader(path)


# _scan reads a file a MiB at a time: a comma-free run (a number, its line end
# and the next id) of exactly the limit, or one more, across the first MiB
@pytest.mark.parametrize("extra, fits", [(0, True), (1, False)])
def test_a_comma_free_run_is_measured_across_reads(tmp_path, extra, fits):
    limit = csv.field_size_limit()
    rows = b"1,1\n" * (((1 << 20) - limit // 2) // 4)
    number = b"0" * (limit - 3 + extra) + b"1"
    path = tmp_path / "runs.csv"
    path.write_bytes(b"y_true,y_pred\n" + rows + b"2," + number + b"\n3,1\n")
    assert path.stat().st_size - 4 - len(number) < 1 << 20 < path.stat().st_size - 4
    table = read_predictions(path)
    assert len(table) == len(rows) // 4 + 2
    assert csvio._scan(path) is fits
    path.write_bytes(b"y_true,y_pred\n" + rows + b"2,1\x1c\n")
    assert not csvio._scan(path)


# a comma-free id from near the end of the first MiB past the end of the
# second: the run _scan carries through the second block, which holds no comma,
# is over the limit, so the row reader refuses the id, and auction with it
def test_a_comma_free_id_over_a_whole_block_is_refused(tmp_path, capsys):
    limit = csv.field_size_limit()
    rows = b"".join(b"%06d,1\n" % i for i in range(((1 << 20) - 1024) // 9))
    start = len(b"customer_id,bid\n" + rows)  # the id's first byte
    path = tmp_path / "long.csv"
    path.write_bytes(b"customer_id,bid\n" + rows + b"a" * (3 << 19) + b",1\n")
    assert (1 << 20) - start < limit and start + (3 << 19) > 2 << 20
    assert not csvio._scan(path)
    message = f"{path}:{len(rows) // 9 + 2}: field larger than field limit ({limit})"
    with pytest.raises(ValueError) as excinfo:
        read_bids(path)
    assert str(excinfo.value) == message
    assert cli_main(["auction", "--bids", str(path),
                     "--config", str(taxi_scenario_path())]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def set_limit():
    """csv.field_size_limit, which the test may call to set the limit: the
    limit is restored after the test."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


@pytest.fixture(params=[None, 1, 2, 7], ids=("default", "1", "2", "7"))
def field_limit(request, set_limit):
    """csv.field_size_limit(): as it is, or set to a small value for the test."""
    if request.param is not None:
        set_limit(request.param)
    return csv.field_size_limit()


def window_of(limit):
    """The size of the windows _scan looks for commas in."""
    return limit // 2 + 1


def comma_run(size, offset, length):
    """size bytes of commas, but for a comma-free run of length bytes at offset."""
    data = bytearray(b"," * size)
    data[offset:offset + length] = b"9" * length
    return bytes(data)


# a comma-free run of the limit fits, and one of one more does not, wherever it
# lies against _scan's windows: here all inside the first MiB, between commas
@pytest.mark.parametrize("extra, fits", [(0, True), (1, False)])
def test_a_comma_free_run_in_one_block_is_measured(tmp_path, field_limit, extra, fits):
    window, length = window_of(field_limit), field_limit + extra
    path = tmp_path / "runs.bin"
    for offset in (window - 1, window, 2 * window - 1):
        path.write_bytes(comma_run(offset + length + 2 * window, offset, length))
        assert csvio._scan(path) is fits, offset


# every offset against the windows: a window one byte too wide misses a run
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 7, 8])
def test_a_comma_free_run_is_found_at_every_offset(tmp_path, set_limit, limit):
    set_limit(limit)
    path = tmp_path / "runs.bin"
    for offset in range(4 * window_of(limit)):
        for extra, fits in ((0, True), (1, False)):
            path.write_bytes(comma_run(offset + limit + 8, offset, limit + extra))
            assert csvio._scan(path) is fits, (offset, extra)


# a run ending on the first MiB's last byte, then a comma or the end of the file
@pytest.mark.parametrize("tail", [b",", b""], ids=("comma", "end"))
@pytest.mark.parametrize("extra, fits", [(0, True), (1, False)])
def test_a_comma_free_run_ending_a_block_is_measured(tmp_path, field_limit, tail,
                                                     extra, fits):
    length = field_limit + extra
    path = tmp_path / "runs.bin"
    path.write_bytes(comma_run(1 << 20, (1 << 20) - length, length) + tail)
    assert csvio._scan(path) is fits


# an id in quotes may hold commas, so no comma-free run bounds it: the row
# reader alone reads it, and refuses one over the limit
@pytest.mark.parametrize("limit", [16, None], ids=("16", "default"))
def test_a_quoted_id_over_the_limit_is_refused_by_the_row_reader(tmp_path, set_limit,
                                                                 limit):
    if limit is not None:
        set_limit(limit)
    limit = csv.field_size_limit()
    path = tmp_path / "ids.csv"
    path.write_bytes(b'customer_id,bid\na,1\n"' + b"b," * (limit // 2 + 1) + b'",1\n')
    with pytest.raises(ValueError, match=rf"ids\.csv:3: field larger than field "
                                         rf"limit \({limit}\)"):
        read_bids(path)


# np.loadtxt reads a path in large chunks, but numpy opens it otherwise than
# csv.reader does: by its suffix, and as a URL if it looks like one.  Each
# file here must read as it does through csv.reader.
BIDS = b"customer_id,bid\nc0,0.5\nc1,0.25\nc2,0\n"


# every file without quotes reaches np.loadtxt by its path, whatever its line
# ends or the whitespace around its header; no file holding a '"' reaches it
@pytest.mark.parametrize("data", [
    b"customer_id,bid\nc0,0.5\nc1,1\n",
    b"customer_id,bid\r\nc0,0.5\r\nc1,1\r\n",
    b"customer_id,bid\rc0,0.5\rc1,1\r",
    '\u3000customer_id,bid\r\nc0,0.5\r\n'.encode(),
    b'customer_id,bid\nc0,0.5\n"c,1",0.25\nc2,0\n',
    b'customer_id,bid\r\n"c,0",0.5\r\nc1,1\r\n',
    b'customer_id,bid\n"c\r0",0.5\nc1,1\n',
    '\u3000customer_id,bid\r\n"c,0",0.5\r\n'.encode(),
], ids=("lf", "crlf", "cr", "wide-space-header", "quoted-lf", "quoted-crlf",
        "quoted-cr-in-id", "quoted-wide-space-header"))
def test_loadtxt_gets_the_path_of_every_file_without_quotes_and_no_other(
        tmp_path, data):
    path = tmp_path / "bids.csv"
    path.write_bytes(data)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        assert len(read_bids(path))
    if b'"' in data:
        loadtxt.assert_not_called()
    else:
        assert loadtxt.call_args.args[0] == str(path)
    assert_same_decision(read_bids, path)


@pytest.mark.parametrize("suffix", [suffix for suffix in
                                    np.lib._datasource._file_openers.keys() if suffix])
def test_a_suffix_numpy_decompresses_is_read_as_plain_text(tmp_path, suffix, capsys):
    plain, named = tmp_path / "bids.csv", tmp_path / f"bids.csv{suffix}"
    plain.write_bytes(BIDS)
    named.write_bytes(BIDS)
    assert rows_only(read_bids, named).tolist() == c_pass_only(read_bids, plain).tolist()
    assert_same_decision(read_bids, named)
    outputs = []
    for path in (plain, named):
        assert cli_main(["auction", "--bids", str(path),
                         "--config", str(taxi_scenario_path())]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_a_url_shaped_relative_path_is_read_locally(tmp_path, monkeypatch):
    local = tmp_path / "http:" / "x" / "bids.csv"
    local.parent.mkdir(parents=True)
    local.write_bytes(BIDS)
    monkeypatch.chdir(tmp_path)
    with mock.patch("urllib.request.urlopen", side_effect=AssertionError("urlopen")):
        table = c_pass_only(read_bids, "http://x/bids.csv")
    assert table.tolist() == read_bids(local).tolist()


def test_a_bytes_path_reads_as_its_str(tmp_path):
    path = tmp_path / "bids.csv"
    path.write_bytes(BIDS)
    assert c_pass_only(read_bids, os.fsencode(path)).tolist() == read_bids(path).tolist()


def test_dot_dot_after_a_symlink_reads_the_file_the_system_opens(tmp_path, monkeypatch):
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "real" / "bids.csv").write_bytes(BIDS)
    (tmp_path / "work").mkdir()
    (tmp_path / "work" / "bids.csv").write_bytes(b"customer_id,bid\nother,1\n")
    (tmp_path / "work" / "link").symlink_to(tmp_path / "real" / "sub")
    monkeypatch.chdir(tmp_path / "work")
    table = c_pass_only(read_bids, "link/../bids.csv")
    assert table.tolist() == read_bids(tmp_path / "real" / "bids.csv").tolist()


# a pipe can be read only once, so the row reader alone reads it, with the
# checks a file on disk gets (the \x1c here is one)
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("data", [BIDS, b"customer_id,bid\na,1\x1c\nb,0.5\n"],
                         ids=("valid", "loose-space"))
def test_a_pipe_reads_as_the_file_does(tmp_path, data):
    path = tmp_path / "bids.csv"
    path.write_bytes(data)
    expected, expected_message = read(read_bids, path)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(data)
    with os.fdopen(read_end, "rb"):
        pipe = f"/dev/fd/{read_end}"
        table, message = read(read_bids, pipe)
    if expected is None:
        assert message == expected_message.replace(str(path), pipe)
    else:
        assert table.tolist() == expected.tolist()


# each column check at its bound: a file with one value on or just past it
@pytest.mark.parametrize("reader, text", [
    (read_bids, "customer_id,bid\na,0\nb,-0\nc,1e308\n"),
    (read_bids, "customer_id,bid\na,-1e-300\n"),
    (read_bids, "customer_id,bid\na,inf\n"),
    (read_bids, "customer_id,bid\na,nan\n"),
    (read_bids, "customer_id,bid\na,1\nb,1\na,1\n"),
    (read_bids, "customer_id,bid\na,1\n a,1\n"),
    (read_predictions, "y_true,y_pred\n-1e308,1e308\n"),
    (read_predictions, "y_true,y_pred\nnan,1\n"),
    (read_predictions, "y_true,y_pred\n1,-inf\n"),
    (read_experiment_points, "q,performance\n1e-300,0\n1e308,1\n"),
    (read_experiment_points, "q,performance\n0,0.5\n"),
    (read_experiment_points, "q,performance\n-0,0.5\n"),
    (read_experiment_points, "q,performance\ninf,0.5\n"),
    (read_experiment_points, "q,performance\n1,-0.001\n"),
    (read_experiment_points, "q,performance\n1,1.001\n"),
    (read_experiment_points, "q,performance\n1,nan\n"),
])
def test_column_checks_meet_the_row_checks_at_their_bounds(tmp_path, reader, text):
    path = tmp_path / "bound.csv"
    path.write_text(text, encoding="utf-8")
    assert_same_decision(reader, path)
    if read(reader, path)[0] is not None:  # a value on the bound passes the C pass
        c_pass_only(reader, path)


# a bad number on line 2, then 20 000 good rows, so the second fault lies
# beyond what the UTF-8 decoder reads ahead of line 2
@pytest.mark.parametrize("second", [HUGE + b",1", b"\xff"], ids=("huge", "utf8"))
@pytest.mark.parametrize("reader, rows", [
    (read_bids, (b"a,lots", b"c%d,0.5")),
    (read_predictions, (b"1,lots", b"%d,1")),
    (read_experiment_points, (b"1,lots", b"%d,0.5")),
], ids=("bids", "predictions", "points"))
def test_first_of_two_faults_is_reported(tmp_path, reader, rows, second):
    bad, good = rows
    header = ",".join(READERS[reader]).encode()
    path = tmp_path / "two.csv"
    path.write_bytes(b"\n".join([header, bad, *(good % (i + 1) for i in range(20000)),
                                 second]) + b"\n")
    with pytest.raises(ValueError, match=rf"two\.csv:2: field \w+ must be a number"):
        reader(path)
    assert_same_decision(reader, path)


# a good row and a faulty one of each reader, formatted with a row number
ROW_KINDS = {read_bids: (b"c%d,0.5", b"c%d,-1"), read_predictions: (b"%d,1", b"%d,nan"),
             read_experiment_points: (b"%d,0.5", b"%d,1.5")}


def numbered(reader, kinds):
    """The bytes of a file for reader: its header, then row i of kind kinds[i],
    numbered i + 1."""
    header = ",".join(READERS[reader]).encode()
    rows = [ROW_KINDS[reader][kind] % (i + 1) for i, kind in enumerate(kinds)]
    return b"\n".join([header, *rows]) + b"\n"


# the first faulty row ends the shortest failing prefix, wherever it lies and
# whatever faulty rows follow it
@pytest.mark.parametrize("reader", list(READERS), ids=("bids", "predictions", "points"))
def test_the_first_faulty_row_is_named_at_every_position(tmp_path, reader):
    path = tmp_path / "rows.csv"
    for n in range(1, 10):
        for first in range(n):
            path.write_bytes(numbered(reader, [i >= first and (i - first) % 3 != 1
                                               for i in range(n)]))
            with pytest.raises(ValueError, match=rf"rows\.csv:{first + 2}: "):
                reader(path)


def test_a_repeated_id_names_both_lines_at_every_position(tmp_path):
    path = tmp_path / "ids.csv"
    for n in range(2, 9):
        for repeat in range(1, n):
            for first in range(repeat):
                ids = [b"c%d" % i for i in range(n)]
                ids[repeat] = ids[first]
                ids[repeat + 1:] = [ids[0]] * (n - repeat - 1)  # later repeats
                path.write_bytes(b"customer_id,bid\n" + b"".join(b"%s,1\n" % cid
                                                                 for cid in ids))
                with pytest.raises(ValueError, match=(
                        rf"ids\.csv:{repeat + 2}: duplicate customer_id 'c{first}', "
                        rf"first on line {first + 2}$")):
                    read_bids(path)


# on the failure path only: with n rows whose last is the only fault, the
# column check runs once in the C pass, once on all rows, and once on the rows
# ahead of the fault, which pass
@pytest.mark.parametrize("reader, core", [
    (read_bids, "_checked_bids"), (read_predictions, "_checked_predictions"),
    (read_experiment_points, "_checked_points"),
], ids=("bids", "predictions", "points"))
def test_a_lone_fault_takes_three_checks(tmp_path, reader, core):
    n = 10**4
    path = tmp_path / "last.csv"
    path.write_bytes(numbered(reader, [False] * (n - 1) + [True]))
    with (mock.patch.object(csvio, core, wraps=getattr(csvio, core)) as check,
          pytest.raises(ValueError, match=rf"last\.csv:{n + 1}: ")):
        reader(path)
    assert [len(call.args[0]) for call in check.call_args_list] == [n, n, n - 1]


# faults of two rules: the earlier row's line and message win, whichever rule
# the reader checks first
@pytest.mark.parametrize("reader, text, error", [
    (read_experiment_points, "q,performance\n1,0.5\n2,1.5\n3,0.5\n-1,0.5\n",
     "3: performance must lie in [0, 1], got 1.5"),
    (read_experiment_points, "q,performance\n1,0.5\n-1,1.5\n",
     "3: data size: must be positive and finite, got -1.0"),
    (read_bids, "customer_id,bid\na,1\nb,-1\nc,1\na,1\n",
     "3: bid: must be non-negative and finite, got -1.0"),
    (read_bids, "customer_id,bid\na,1\nb,1\na,1\nc,-1\n",
     "4: duplicate customer_id 'a', first on line 2"),
], ids=("performance-then-q", "both-on-one-row", "bid-then-repeat", "repeat-then-bid"))
def test_the_earlier_of_two_rules_faults_is_named(tmp_path, reader, text, error):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}:{error}"


class TestWriteSweep:
    rows = [
        SweepResultRow(
            value=0.123456789,
            expected_profit=1288.2624543,
            optimal_price=0.26265249,
            optimal_q=39.5,
            empirical_mean=1290.1234,
            empirical_std=13.25,
        )
    ]

    def test_header_and_formatting(self):
        buf = io.StringIO()
        write_sweep_csv(self.rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert lines[1] == "0.123457,1288.26,0.262652,39.5,1290.12,13.25"

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(self.rows, path)
        assert path.read_text(encoding="utf-8").startswith("value,")

    def test_six_significant_digits(self):
        assert format_sig(1288.2624543572058) == "1288.26"
        assert format_sig(0.26265249087144116) == "0.262652"
        assert format_sig(0.0) == "0"


class TestWriteTableAndSummary:
    def test_float_columns_formatted_others_verbatim(self):
        buf = io.StringIO()
        columns = (("a", "b"), [0.123456789, 2.0], np.array([1, 0], dtype=np.int8),
                   np.array([1288.2624543, 0.0]))
        write_table(("id", "x", "n", "p"), columns, buf)
        assert buf.getvalue() == "id,x,n,p\r\na,0.123457,1,1288.26\r\nb,2,0,0\r\n"

    def test_empty_table_is_its_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(("id", "x"), ((), ()), path)
        assert path.read_bytes() == b"id,x\r\n"

    def test_a_table_of_no_columns_is_its_empty_header(self):
        buf = io.StringIO()
        write_table((), (), buf)
        assert buf.getvalue() == csv_writer_table((), ()) == "\r\n"

    @pytest.mark.parametrize("header, columns, error", [
        (("a", "b"), ([1.0, 2.0, 3.0], ["x", "y", "z", "w"]),
         "expected columns of equal length, got lengths [3, 4]"),
        (("a", "b"), ([1.0, 2.0, 3.0], ["x", "y"]),
         "expected columns of equal length, got lengths [3, 2]"),
        (("a", "b", "c"), ([1.0, 2.0], ["x", "y"]),
         "expected one header name per column, got 3 for 2 columns"),
        (("a",), ([1.0], ["x"]),
         "expected one header name per column, got 1 for 2 columns"),
        (("a", "b"), (), "expected one header name per column, got 2 for 0 columns"),
    ], ids=("later-longer", "later-shorter", "header-longer", "header-shorter", "no-columns"))
    def test_a_malformed_table_is_refused_before_out_is_opened(self, tmp_path, header,
                                                               columns, error):
        path = tmp_path / "table.csv"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError) as info:
            write_table(header, columns, path)
        assert str(info.value) == error
        assert path.read_bytes() == b"kept"

    def test_the_writer_holds_one_chunk(self, tmp_path):
        # the auction table's shape: object ids, float bids and two str tail
        # columns; rendering a chunk at a time, the writer's peak does not
        # grow with the table's rows
        header = ("customer_id", "bid", "allocation", "payment")
        path = tmp_path / "table.csv"
        peaks = []
        for chunks in (10, 100):
            rows = chunks * csvio._CHUNK_ROWS
            tails = np.array([("0", "0"), ("1", "0.5")], dtype=object)
            columns = (np.array([f"c{i}" for i in range(rows)], dtype=object),
                       np.linspace(0.0, 1.0, rows), *tails[np.arange(rows) % 2].T)
            tracemalloc.start()
            try:
                write_table(header, columns, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert path.read_bytes().count(b"\r\n") == 100 * csvio._CHUNK_ROWS + 1
        assert peaks[1] - peaks[0] <= 1e6, peaks

    def test_summary_lines(self, tmp_path):
        summary = {"profit": 1288.2624543, "n": 3, "rejected": True, "ok": False}
        path = tmp_path / "summary.txt"
        write_summary(summary, path)
        assert path.read_text(encoding="utf-8") == (
            "profit = 1288.26\nn = 3\nrejected = true\nok = false\n"
        )


# write_table against what it replaces: csv.writer (QUOTE_MINIMAL, "\r\n") fed
# format_sig for every cell of a float column.  Guards against a Python
# release that changes how csv quotes, and against a chunk boundary that
# renders a row differently.
def csv_writer_table(header, columns):
    cells = [column.tolist() if isinstance(column, np.ndarray) else column
             for column in columns]
    cells = [[format_sig(x) for x in column] if len(column)
             and isinstance(column[0], float) else column for column in cells]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*cells))
    return buf.getvalue()


def written(header, columns, tmp_path, to_path):
    """What write_table writes, to a file at a path or to a StringIO."""
    if not to_path:
        buf = io.StringIO()
        write_table(header, columns, buf)
        return buf.getvalue()
    path = tmp_path / "table.csv"
    write_table(header, columns, path)
    return path.read_bytes().decode("utf-8")


ODD_IDS = ("", ",", '"', 'a,"b"', "\r", "\n", "\r\n", "x\r\ny", " pad", "pad ", "\tt",
           "naïve 顧客", "\U0001f600", "%s", "%%")
ODD_FLOATS = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1e308, -1e308, 1e16, 123456.5, 0.1)
SIZES = (0, 1, csvio._CHUNK_ROWS, csvio._CHUNK_ROWS + 1)


def column_as(kind, cells):
    """cells as write_table's callers pass them: a numpy array, a list or a tuple."""
    if kind == "array":
        return np.array(cells, dtype=object if cells and isinstance(cells[0], str)
                        else float)
    return list(cells) if kind == "list" else tuple(cells)


@st.composite
def tables(draw):
    """A header and 1-5 equal-length columns of ids, floats or ints, each a
    numpy array, list or tuple, with odd ids and floats anywhere in them."""
    rows = draw(st.sampled_from(SIZES + (2, 3)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(("text", "float", "int8", "int")),
                              min_size=1, max_size=5)):
        if kind == "int8":
            values = draw(st.lists(st.integers(-128, 127), min_size=1, max_size=4))
            columns.append(np.array([values[i % len(values)] for i in range(rows)],
                                    dtype=np.int8))
            continue
        if kind == "int":
            values = draw(st.lists(st.integers(), min_size=1, max_size=4))
            columns.append([values[i % len(values)] for i in range(rows)])
            continue
        if kind == "text":
            cells = [f"c{i}" for i in range(rows)]
            odd = st.sampled_from(ODD_IDS) | st.text(max_size=5)
        else:
            cells = [float(i) / 7.0 for i in range(rows)]
            odd = st.sampled_from(ODD_FLOATS) | st.floats()
        if rows:
            for i, value in draw(st.dictionaries(st.integers(0, rows - 1), odd,
                                                 max_size=6)).items():
                cells[i] = value
        columns.append(column_as(draw(st.sampled_from(("array", "list", "tuple"))),
                                 cells))
    header = tuple(f"h{i}" for i in range(len(columns)))
    return header, columns


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(table=tables(), to_path=st.booleans())
def test_write_table_matches_csv_writer(tmp_path, table, to_path):
    header, columns = table
    assert written(header, columns, tmp_path, to_path) == csv_writer_table(header, columns)


@pytest.mark.parametrize("to_path", [False, True], ids=("stream", "path"))
@pytest.mark.parametrize("rows", SIZES)
def test_write_table_matches_csv_writer_on_every_odd_cell(tmp_path, rows, to_path):
    ids = [ODD_IDS[i % len(ODD_IDS)] if i < len(ODD_IDS) or i >= rows - len(ODD_IDS)
           else f"c{i}" for i in range(rows)]
    bids = [ODD_FLOATS[i % len(ODD_FLOATS)] for i in range(rows)]
    header = ("customer_id", "bid", "allocation", "payment")
    columns = (np.array(ids, dtype=object), np.array(bids),
               (np.arange(rows) % 2).astype(np.int8), [bid * 2 for bid in bids])
    assert written(header, columns, tmp_path, to_path) == csv_writer_table(header, columns)
    # a lone column quotes an empty id, as csv.writer does
    assert (written(("id",), (ids,), tmp_path, to_path)
            == csv_writer_table(("id",), (ids,)))


def test_sweep_rows_match_csv_writer():
    rows = [SweepResultRow(float(i), -0.0, math.inf, 5e-324, math.nan, 1e308)
            for i in range(csvio._CHUNK_ROWS + 1)]
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    columns = list(zip(*([getattr(row, name) for name in SWEEP_HEADER] for row in rows)))
    assert buf.getvalue() == csv_writer_table(SWEEP_HEADER, columns)
    buf = io.StringIO()
    write_sweep_csv([], buf)
    assert buf.getvalue() == ",".join(SWEEP_HEADER) + "\r\n"
