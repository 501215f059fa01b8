import io

import numpy as np
import pytest

from datamarket import SweepResultRow, load_scenario
from datamarket.csvio import (
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
        assert [(b.customer_id, b.bid) for b in bids] == [("alice", 0.3), ("bob", 0.1)]

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
        assert [(r.y_true, r.y_pred) for r in records] == [(600.0, 630.0), (900.0, 1200.0)]

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
        assert [(p.q, p.alpha) for p in points] == [(10.0, 0.51), (100.0, 0.53)]

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

    def test_summary_lines(self, tmp_path):
        summary = {"profit": 1288.2624543, "n": 3, "rejected": True, "ok": False}
        path = tmp_path / "summary.txt"
        write_summary(summary, path)
        assert path.read_text(encoding="utf-8") == (
            "profit = 1288.26\nn = 3\nrejected = true\nok = false\n"
        )
