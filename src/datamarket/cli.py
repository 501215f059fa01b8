"""Command-line front end: fit, metric, auction, optimize, simulate, sweep.

Exit codes: 0 success, 1 input or config error, 2 internal error.  All
randomized commands are deterministic given --seed.

A command handler returns (summary, table): the `key = value` summary as a
dict, and a function writing the CSV table to a path or stream.  Either may be
None.  --out takes the table if there is one, else the summary.

cli_main parses with one parser a process, built on its first call: parsing
leaves a parser as it was, so later calls repeat none of that work.
build_parser() gives a fresh parser to a caller who wants to change one.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from . import csvio
from .auction import posted_price, sale_profit
from .fitting import hit_rate, least_squares_fit
from .market import data_cost, require_positive
from .optimize import optimal_data_size
from .scenario import load_scenario
from .simulate import SWEEP_PARAMETERS, ScenarioError, check_draws, simulate, sweep

__all__ = ["cli_main", "main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


@contextmanager
def _naming(path, kind=ValueError):
    """Prefix path to a ValueError of kind raised inside: the values read from it
    caused it."""
    try:
        yield
    except kind as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_fit(args):
    points = csvio.read_experiment_points(args.points)
    with _naming(args.points):
        report = least_squares_fit(points["q"], points["performance"])
    return {"a": report.curve.a, "b": report.curve.b, "rmse": report.rmse,
            "n_points": report.n_points}, None


def _cmd_metric(args):
    require_positive("--tau", args.tau)
    records = csvio.read_predictions(args.predictions)
    rate = hit_rate(records["y_true"], records["y_pred"], args.tau)
    return {"satisfaction_rate": rate, "n_records": len(records), "tau": args.tau}, None


def _cmd_auction(args):
    config = load_scenario(args.config)
    if config.q is None:
        raise ValueError(f"{args.config}: scenario field q: required for an auction run")
    bids = csvio.read_bids(args.bids)
    with _naming(args.config):
        model, cost = config.model(), data_cost(config.q, config.k)
    winners, price = posted_price(bids["bid"], model)
    n_winners = np.count_nonzero(winners)
    summary = {"threshold_price": price, "winners": n_winners,
               "gross_profit": sale_profit(n_winners, price, cost)}
    header = ("customer_id", "bid", "allocation", "payment")
    # a row's (allocation, payment) is one of two: rendered once, picked by
    # the mask as an index of rows (a bool index would select, not pick)
    tails = np.array([("0", csvio.format_sig(0.0)), ("1", csvio.format_sig(price))],
                     dtype=object)
    columns = (bids["customer_id"], bids["bid"], *tails[winners.astype(np.intp)].T)
    return summary, lambda out: csvio.write_table(header, columns, out)


def _cmd_optimize(args):
    config = load_scenario(args.config)
    with _naming(args.config):
        report = optimal_data_size(config.market, config.curve)
    return {"q_star": report.q_star, "optimal_price": report.price_at_q_star,
            "expected_profit": report.expected_profit_at_q_star,
            "rejected": report.rejected}, None


def _monte_carlo_config(args, rows=1):
    """The scenario with the --seed and --trials overrides, its draws checked."""
    config = load_scenario(args.config)
    for name in ("seed", "trials"):
        if getattr(args, name) is not None:
            try:
                config = replace(config, **{name: getattr(args, name)})
            except ValueError as exc:  # name the flag, not the scenario field
                detail = str(exc).removeprefix(f"scenario field {name}: ")
                raise ValueError(f"--{name}: {detail}") from None
    trials = ("--trials" if args.trials is not None
              else f"{args.config}: scenario field trials")
    check_draws(config.M, config.trials, rows,
                (f"{args.config}: scenario field M", trials, "--steps"))
    return config


def _cmd_simulate(args):
    config = _monte_carlo_config(args)
    with _naming(args.config):
        return asdict(simulate(config)), None


def _cmd_sweep(args):
    config = _monte_carlo_config(args, args.steps)
    if args.steps < 2:  # grid()'s bound, checked here to name the flag
        raise ValueError(f"--steps: need at least 2 grid points, got {args.steps}")
    with _naming(args.config, ScenarioError):
        rows = sweep(config, args.param, args.lo, args.hi, args.steps)
    return None, lambda out: csvio.write_sweep_csv(rows, out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="datamarket",
        description="Profit-maximizing auction and purchase planning "
        "for big-data service markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit the utility curve to experiment points")
    p.add_argument("--points", required=True,
                   help=f"CSV with header {','.join(csvio.POINT_HEADER)}")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("metric", help="satisfaction rate of a prediction log")
    p.add_argument("--predictions", required=True,
                   help=f"CSV with header {','.join(csvio.PREDICTION_HEADER)}")
    p.add_argument("--tau", type=float, required=True, help="error tolerance")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("auction", help="run the posted-price auction on sealed bids")
    p.add_argument("--bids", required=True,
                   help=f"CSV with header {','.join(csvio.BID_HEADER)}")
    p.add_argument("--config", required=True, help="scenario config file")
    p.set_defaults(func=_cmd_auction)

    p = sub.add_parser("optimize", help="optimal data purchase for a scenario")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the expected profit")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate profit along a parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.set_defaults(func=_cmd_sweep)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the table, else the summary, to this file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser cli_main shares across its calls, built on the first."""
    return build_parser()


def cli_main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code.

    Each distinct warning the command raises goes to stderr once, as
    `warning: <message>`, ahead of any error line; it never changes the code.

    It may be called any number of times in one process; every call parses
    with the one parser _parser() builds on the first.  That parser binds each
    command's _cmd_* handler when it is built, so replacing a _cmd_* function
    after the first call does not reach cli_main; replacing a function the
    handlers call does.
    """
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit:  # argparse --help; its usage errors raise _UsageError
        return 0
    code, error = 0, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            summary, table = args.func(args)
            out = args.out or sys.stdout
            if table is not None:
                table(out)
                out = sys.stdout
            if summary is not None:
                csvio.write_summary(summary, out)
        except (ValueError, LookupError, OSError) as exc:
            code, error = 1, f"error: {exc}"
        except Exception as exc:
            code, error = 2, f"internal error: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr)
    return code


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
