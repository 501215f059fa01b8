"""A recorded output corpus: command lines across the input space that the
CLI answers, whose exit code, stderr, stdout and --out text must stay as
recorded.

The inputs are made here with no random draws.  Scenario i takes its fields
from log-uniform grids (three values a decade, strings as a config file
holds them) at the digits of i * STEP in the mixed radix of the grids' sizes,
so successive scenarios differ in most fields: k, gamma, N, a, b and q, with
M in 1-100, trials in 1-4 and four seeds, two of which cross a multiple of
2**32 within a run.  Each scenario is run through `optimize`, `simulate` and
a `sweep` over each of price, q, k and gamma; the price sweep's rows are 0,
the optimal price p* = s/2 as the package computes it, the support s, and
past it.  `auction`, `fit` and `metric` read files of 1-10 rows.  The
bundled taxi scenario adds seeded runs of a few trials.  Large runs are not
here: a run splits across threads only at 1.5e6 draws a part, too slow for
this corpus, and test_market.py's forced splits cover that path.

tests/data/output_corpus.json maps the SHA-256 of each command (its argument
list and the text of each file it reads) to [exit code, stderr, stdout,
--out text or None], with the scratch directory written as <dir>.  To record
it again (only when a change of output is intended):

    PYTHONPATH=src python tests/test_output_corpus.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from datamarket import taxi_scenario_path
from datamarket.auction import optimal_price
from datamarket.cli import cli_main
from datamarket.market import UtilityCurve

RECORD = Path(__file__).parent / "data" / "output_corpus.json"


def _decades(first: int, last: int) -> list[str]:
    """Three log-uniform values a decade, 1e{first} to 4.7e{last}."""
    return [f"{mantissa}e{exponent}" for exponent in range(first, last + 1)
            for mantissa in ("1", "2.2", "4.7")]


# the scenario fields' grids: q is clamped to N, and N starts past 1 so that
# a q sweep from 1 to N has lo < hi
GRIDS = {
    "M": ["1", "2", "5", "10", "22", "47", "100"],
    "k": _decades(-3, 1),
    "gamma": _decades(-2, 1),
    "N": _decades(0, 3)[1:],
    "a": _decades(-3, -1),
    "b": _decades(-3, -1),
    "q": _decades(0, 3),
    "trials": ["1", "2", "3", "4"],
    "seed": ["0", "12345", str(2**32 - 2), str(2**70 + 3)],
}
SCENARIOS = 200
# a large odd step: successive scenarios differ in most fields
STEP = 1_000_003
FILES = 120  # of each of auction, fit and metric


def _pick(index: int) -> dict[str, str]:
    """The scenario at index of the grids' product, in mixed radix."""
    fields = {}
    for name, grid in reversed(GRIDS.items()):
        index, digit = divmod(index, len(grid))
        fields[name] = grid[digit]
    if float(fields["q"]) > float(fields["N"]):
        fields["q"] = fields["N"]
    return dict(reversed(fields.items()))


def scenarios() -> list[dict[str, str]]:
    return [_pick(i * STEP) for i in range(SCENARIOS)]


def _config(fields) -> str:
    return "".join(f"{name} = {value}\n" for name, value in fields.items())


def _p_star(fields) -> float:
    """The package's optimal price p* = s/2 of the scenario's q."""
    curve = UtilityCurve(float(fields["a"]), float(fields["b"]))
    return optimal_price(curve, float(fields["q"]), float(fields["gamma"]))


def _sweeps(fields, steps):
    """The four sweeps of a scenario: price 0, p*, 2p* = s, 3p*, 4p*
    (linspace's step is 4p*/4, exactly p*), q from 1 to N, k and gamma a
    decade either side."""
    for param, lo, hi, n in (("price", 0.0, 4.0 * _p_star(fields), 5),
                             ("q", 1.0, float(fields["N"]), steps),
                             ("k", float(fields["k"]) / 10, float(fields["k"]) * 10, steps),
                             ("gamma", float(fields["gamma"]) / 10,
                              float(fields["gamma"]) * 10, steps)):
        yield ["sweep", "--config", "{config}", "--param", param, "--lo", repr(lo),
               "--hi", repr(hi), "--steps", str(n), "--out", "{out}"]


def _rows(header, rows) -> str:
    return "".join(f"{line}\n" for line in [header, *map(",".join, rows)])


def commands():
    """(argv, {placeholder: file text}) of every command in the corpus, in a
    fixed order; argv names its input files and --out by placeholder."""
    taxi = taxi_scenario_path().read_text(encoding="utf-8")
    listed = scenarios()
    for i, fields in enumerate(listed):
        files = {"config": _config(fields)}
        yield ["optimize", "--config", "{config}"], files
        yield ["simulate", "--config", "{config}"], files
        for argv in _sweeps(fields, 2 + i % 4):
            yield argv, files
    # the taxi scenario, M = 10**4, at a few seeds and trials
    taxi_fields = dict(line.split(" = ") for line in taxi.splitlines()
                       if " = " in line and not line.startswith("#"))
    yield ["optimize", "--config", "{config}"], {"config": taxi}
    for seed in GRIDS["seed"]:
        for trials in GRIDS["trials"]:
            yield (["simulate", "--config", "{config}", "--seed", seed,
                    "--trials", trials], {"config": taxi})
        for argv in _sweeps(taxi_fields, 3):
            yield argv + ["--seed", seed, "--trials", "2"], {"config": taxi}
    for j in range(FILES):
        n = 1 + j % 10
        # auction, on scenario j or every fifth file on the taxi scenario:
        # bids at log-uniform multiples of its s, one of them exactly at p*,
        # and a zero bid in every third file
        fields, config = ((taxi_fields, taxi) if j % 5 == 0
                          else (listed[j], _config(listed[j])))
        p_star = _p_star(fields)
        scale = _decades(-1, 0)
        bids = [[f"c{j}-{r}", f"{float(scale[(j + 7 * r) % 6]) * 2 * p_star:.6g}"]
                for r in range(n)]
        if n >= 3:
            bids[1][1] = repr(p_star)
        if j % 3 == 0:
            bids[0][1] = "0"
        yield (["auction", "--bids", "{bids}", "--config", "{config}", "--out", "{out}"],
               {"bids": _rows("customer_id,bid", bids), "config": config})
        # fit: data sizes from the q grid, performances in (0, 1]
        sizes, levels = GRIDS["q"], _decades(-3, -1) + ["1"]
        points = [[sizes[(j + 5 * r) % len(sizes)], levels[(j // 10 + 3 * r) % len(levels)]]
                  for r in range(n)]
        yield ["fit", "--points", "{points}"], {"points": _rows("q,performance", points)}
        # metric: predictions a log-uniform factor off, tau from 1 to 470
        values = _decades(0, 3)
        predictions = [[values[(j + r) % 12], values[(j + 3 * r + 1) % 12]]
                       for r in range(n)]
        yield (["metric", "--predictions", "{predictions}", "--tau",
                _decades(0, 2)[j % 9]],
               {"predictions": _rows("y_true,y_pred", predictions)})


def key(argv, files) -> str:
    return hashlib.sha256(json.dumps([argv, files], sort_keys=True).encode()).hexdigest()


def run(argv, files, directory):
    """[exit code, stderr, stdout, --out text or None] of one command run in
    directory, the directory written as <dir>."""
    paths = {name: Path(directory) / f"{name}.txt" for name in [*files, "out"]}
    for name, text in files.items():
        paths[name].write_text(text, encoding="utf-8")
    paths["out"].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([arg.format(**paths) for arg in argv])
    written = (paths["out"].read_text(encoding="utf-8") if paths["out"].exists()
               else None)
    return [code, *(text.replace(str(directory), "<dir>")
                    for text in (err.getvalue(), out.getvalue())), written]


def replay(directory):
    """{key of a command: run() of it} over the whole corpus."""
    return {key(argv, files): run(argv, files, directory) for argv, files in commands()}


def test_the_output_corpus_replays_as_recorded(tmp_path):
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
    print(f"{len(outcomes)} commands recorded in {RECORD}", file=sys.stderr)
