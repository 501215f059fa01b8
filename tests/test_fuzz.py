"""Fuzz tests of the input boundaries: scenario files, CSV files and argv.

Whatever the input, a command exits 0 or 1, never reports an internal error
or a traceback, names the file its reading failed on, and prints no inf or
nan when it succeeds.  Sizes (M, trials, steps) are small, or huge: a count
whose draws pass any bound, and an M past the float range.  A huge CSV file
is not generated.
"""

import csv
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from datamarket import load_scenario
from datamarket.cli import cli_main
from datamarket.csvio import read_bids, read_experiment_points, read_predictions

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
HOSTILE = ("nan", "inf", "-1", "0", "1e308", "2.5", "abc")
# a count whose draws, M x trials x rows, pass any bound: 7 PiB of valuations
HUGE_COUNT = "1000000000000000"
# a count past the float range: float() of it overflows
PAST_FLOAT = "1" + "0" * 400
SCENARIO = {"M": "50", "k": "0.5", "gamma": "1", "N": "100", "a": "0.4944",
            "b": "0.0079", "q": "50", "tau": "180", "seed": "3", "trials": "3"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A valid small scenario and CSV inputs, for commands that need more files."""
    directory = tmp_path_factory.mktemp("fuzz")
    files = {
        "small.cfg": "".join(f"{key} = {value}\n" for key, value in SCENARIO.items()),
        "bids.csv": "customer_id,bid\na,0.3\nb,0.1\n",
        "points.csv": "q,performance\n1,0.49\n100,0.53\n",
        "preds.csv": "y_true,y_pred\n600,630\n600,850\n",
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def run(argv, echoes_ids=False):
    """cli_main on argv: (exit code, stderr), checked against the contract.

    With echoes_ids the first column of a table holds input ids, verbatim, so
    the check that every number printed is finite skips it.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main([str(arg) for arg in argv])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1), err
    assert "internal error" not in err and "Traceback" not in err
    if code == 0:
        cells = [cell.rpartition(" = ")[2] for row in csv.reader(io.StringIO(out))
                 for cell in (row[1:] if echoes_ids and len(row) > 1 else row)]
        assert all(map(finite, cells)), out
    return code, err


def finite(cell):
    """Whether cell is text, an integer (finite however long: a seed may lie
    past the float range) or a finite float."""
    if cell.lstrip("-").isdigit():
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True


def read_error(reader, path):
    """The message reader raises on path, or None if it reads the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reader(path)
    except ValueError as exc:
        return str(exc)
    return None


def assert_names_file(reader, path, code, err):
    """An error that reading path raises is the command's error, and names path."""
    message = read_error(reader, path)
    if message is not None:
        assert message.startswith(f"{path}:")
        assert code == 1
        assert err.endswith(f"error: {message}\n")


def mutated(draw, valid, choices, max_size):
    """valid (a dict) with up to max_size of its values replaced by a draw from
    choices; None drops the key."""
    values = dict(valid)
    for key in draw(st.lists(st.sampled_from(list(valid)), max_size=max_size, unique=True)):
        values[key] = draw(st.sampled_from(choices))
    return {key: value for key, value in values.items() if value is not None}


@st.composite
def scenario_texts(draw):
    """A valid scenario with up to two values changed or dropped, plus maybe an
    unknown, repeated or malformed line."""
    values = mutated(draw, SCENARIO, (None, "1", "0.1", HUGE_COUNT, PAST_FLOAT) + HOSTILE, 2)
    lines = [f"{key} = {value}" for key, value in values.items()]
    extras = st.one_of(
        st.builds("{} = {}".format, st.sampled_from([*SCENARIO, "foo"]),
                  st.sampled_from(("1",) + HOSTILE)),
        st.sampled_from(("M 50", "junk", "= 3", "# comment", "")),
    )
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(extras))
    return "\n".join(lines) + "\n"


WARNS = "".join(f"{key} = {value}\n" for key, value in {**SCENARIO, "a": "-1"}.items())


@FUZZ
@example(text=WARNS, command=["optimize"])
@example(text=WARNS.replace("q = 50\n", ""), command=["simulate"])
@example(text=WARNS.replace("M = 50\n", f"M = {HUGE_COUNT}\n"), command=["simulate"])
@example(text=WARNS.replace("M = 50\n", f"M = {PAST_FLOAT}\n"), command=["optimize"])
@example(text=WARNS.replace("seed = 3\n", f"seed = {PAST_FLOAT}\n"), command=["simulate"])
@example(text="".join(f"{key} = {value}\n" for key, value in {**SCENARIO, "k": "1e308"}.items()),
         command=["auction", "--bids", "bids.csv"])
@given(text=scenario_texts(),
       command=st.sampled_from([["optimize"], ["simulate"],
                                ["sweep", "--param", "gamma", "--lo", "0.5", "--hi", "2",
                                 "--steps", "3"],
                                ["auction", "--bids", "bids.csv"]]))
def test_scenario_files(workdir, text, command):
    path = workdir / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    argv = [workdir / arg if arg.endswith(".csv") else arg for arg in command]
    code, err = run([*argv, "--config", path])
    assert_names_file(load_scenario, path, code, err)


# per file: its reader, its header, the command that reads it from the path
# appended last, and the valid cells of each column
CSV_FILES = {
    "bids.csv": (read_bids, "customer_id,bid",
                 ["auction", "--config", "small.cfg", "--bids"],
                 (("a", "b", "c", "d"), ("0.1", "0.3", "0.5", "0", "1e308"))),
    "points.csv": (read_experiment_points, "q,performance", ["fit", "--points"],
                   (("1", "10", "100", "0.5"), ("0.5", "0.49", "0.53", "0", "1"))),
    "preds.csv": (read_predictions, "y_true,y_pred",
                  ["metric", "--tau", "60", "--predictions"],
                  (("600", "630", "1", "-1"), ("600", "850", "0.5", "0"))),
}
# hostile cells: a quoted field spanning lines, one over the csv module's
# size limit, an empty one, and None for a row cut short
CELLS = (None, "", '"a\nb"', "9" * 131073) + HOSTILE


@FUZZ
@given(name=st.sampled_from(sorted(CSV_FILES)), data=st.data())
def test_csv_files(workdir, name, data):
    reader, header, command, columns = CSV_FILES[name]
    rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, columns)),
                              min_size=1, max_size=5))
    cells = {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}
    if name == "bids.csv":
        cells.update({(i, 0): f"{row[0]}{i}" for i, row in enumerate(rows)})
    cells = mutated(data.draw, cells, CELLS, 2)
    lines = [",".join(cells[i, j] for j in range(2) if (i, j) in cells)
             for i in range(len(rows))]
    path = workdir / f"fuzz-{name}"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    argv = [workdir / arg if arg.endswith(".cfg") else arg for arg in command]
    code, err = run([*argv, path], echoes_ids=name == "bids.csv")
    assert_names_file(reader, path, code, err)


# per command: a valid value of each flag
COMMANDS = {
    "fit": {"--points": "points.csv"},
    "metric": {"--predictions": "preds.csv", "--tau": "60"},
    "auction": {"--bids": "bids.csv", "--config": "small.cfg"},
    "optimize": {"--config": "small.cfg"},
    "simulate": {"--config": "small.cfg", "--seed": "7", "--trials": "3"},
    "sweep": {"--config": "small.cfg", "--param": "q", "--lo": "1", "--hi": "50",
              "--steps": "3", "--seed": "7", "--trials": "2"},
}
FILES = ("small.cfg", "bids.csv", "points.csv", "preds.csv", "missing.cfg", ".", "out.txt")
ARGS = (None, "1", "3", "k", "gamma", "price", "M", HUGE_COUNT) + HOSTILE + FILES


@st.composite
def argvs(draw):
    """One of the six commands with up to two flags dropped or given another
    value, and sometimes --out or an unknown flag."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = mutated(draw, COMMANDS[command], ARGS, 2)
    extra = draw(st.sampled_from(([], ["--out", "out.txt"], ["--out", "."], ["--fast"])))
    return [command, *(part for pair in flags.items() for part in pair), *extra]


@FUZZ
@example(argv=["sweep", *(part for pair in {**COMMANDS["sweep"], "--steps": HUGE_COUNT}
                          .items() for part in pair)])
@example(argv=["simulate", "--config", "small.cfg", "--trials", HUGE_COUNT])
@given(argv=argvs())
def test_command_lines(workdir, argv):
    run([workdir / arg if arg in FILES else arg for arg in argv])
