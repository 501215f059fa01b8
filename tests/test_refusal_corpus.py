"""A recorded refusal corpus: faulty files for the three CSV readers, each read
by the CLI command that takes it, whose exit code, stderr and stdout must stay
as recorded.

The files are made here with no random draws: every BAD cell of
test_csvio.py in each column of rows 1 and 3, every ROWS fault, and a few
header faults, each with LF, CRLF and bare-CR line ends; then files with two
faults, a value fault and a parse fault in both orders, some 20 000 rows
apart.  tests/data/refusal_corpus.json maps each file's SHA-256 to what
`auction`, `fit` or `metric` made of it, with the file's path written as
<file>.  To record it again (only when a change of output is intended):

    PYTHONPATH=src python tests/test_refusal_corpus.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from test_csvio import BAD, ROWS

from datamarket import taxi_scenario_path
from datamarket.cli import cli_main

RECORD = Path(__file__).parent / "data" / "refusal_corpus.json"
# per reader: its header, four good rows, a value fault and the command line
# reading a file at {path}
READERS = {
    "bids": (b"customer_id,bid",
             [[b"id0", b"0.5"], [b"id1", b"0.25"], [b"id2", b"1"], [b"id3", b"0.75"]],
             [b"id9", b"-1"],
             ["auction", "--bids", "{path}", "--config", str(taxi_scenario_path())]),
    "predictions": (b"y_true,y_pred",
                    [[b"600", b"630"], [b"900", b"1200"], [b"540", b"720"],
                     [b"700", b"650"]],
                    [b"600", b"nan"],
                    ["metric", "--predictions", "{path}", "--tau", "60"]),
    "points": (b"q,performance",
               [[b"1", b"0.49"], [b"20", b"0.518"], [b"100", b"0.531"],
                [b"400", b"0.55"]],
               [b"50", b"1.5"],
               ["fit", "--points", "{path}"]),
}
ENDS = (b"\n", b"\r\n", b"\r")
# rows between the two faults of a long file: past what the UTF-8 decoder
# reads ahead of the first
FAR = 20000


def _text(header, rows, end=b"\n"):
    return end.join([header, *map(b",".join, rows)]) + end


def corpus():
    """(reader, bytes) of every file in the corpus, in a fixed order."""
    for reader, (header, good, value, _) in READERS.items():
        tables = []
        for row in (1, 3):
            for column in (0, 1):
                for cell in BAD:
                    rows = [list(cells) for cells in good]
                    rows[row][column] = cell
                    tables.append((header, rows))
        for fault in ROWS.values():
            tables.append((header, good[:2] + [list(fault)] + good[2:]))
        tables += [(b"y," + header, good), (header, []), (b"", [])]
        # a value fault and a parse fault (a bad number, a short row, a bad
        # byte), in both orders
        for parse in ([value[0], b"x"], [b"1"], [b"1", b"\xff"]):
            tables.append((header, good[:1] + [value] + good[1:3] + [parse]))
            tables.append((header, good[:1] + [parse] + good[1:3] + [value]))
        for end in ENDS:
            for header_line, rows in tables:
                yield reader, _text(header_line, rows, end)
        # a fault on line 2 and another FAR rows later; or the one fault last
        many = [[b"c%d" % i if reader == "bids" else good[i % 4][0], good[i % 4][1]]
                for i in range(FAR)]
        bad_number = [value[0], b"x"]
        for head, last in (([value], [b"1", b"\xff"]), ([value], bad_number),
                           ([bad_number], value), ([], value)):
            yield reader, _text(header, head + many + [last])


def run(reader, path):
    """[exit code, stderr, stdout] of the command reading path, path as <file>."""
    argv = [arg.format(path=path) for arg in READERS[reader][3]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return [code, err.getvalue().replace(str(path), "<file>"), out.getvalue()]


def replay(directory):
    """{SHA-256 of a corpus file: run() of it} over the whole corpus."""
    path = Path(directory) / "corpus.csv"
    outcomes = {}
    for reader, data in corpus():
        path.write_bytes(data)
        outcomes[hashlib.sha256(data).hexdigest()] = run(reader, path)
    return outcomes


def test_the_refusal_corpus_replays_as_recorded(tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    replayed = replay(tmp_path)
    assert replayed.keys() == recorded.keys()
    assert {key: outcome for key, outcome in replayed.items()
            if outcome != recorded[key]} == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        outcomes = replay(directory)
    RECORD.write_text(json.dumps(outcomes, indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{len(outcomes)} files recorded in {RECORD}", file=sys.stderr)
