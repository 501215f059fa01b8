"""Command-line front end: fit, metric, auction, optimize, simulate, sweep.

Exit codes: 0 success, 1 input or config error, 2 internal error.  All
randomized commands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from dataclasses import replace

from . import csvio
from .auction import run_auction
from .fitting import fit_utility, satisfaction_rate
from .optimize import optimal_data_size
from .scenario import load_scenario
from .simulate import SWEEP_PARAMETERS, simulate, sweep

__all__ = ["cli_main", "main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _with_overrides(config, args):
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    return replace(config, **updates) if updates else config


def _cmd_fit(args) -> int:
    points = csvio.read_experiment_points(args.points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flag below carries the message
        report = fit_utility(points)
    if report.nonpositive_slope:
        print("warning: fitted slope is not positive; profit optimization "
              "will refuse this curve", file=sys.stderr)
    _emit(
        [
            f"a = {csvio.format_sig(report.curve.a)}",
            f"b = {csvio.format_sig(report.curve.b)}",
            f"rmse = {csvio.format_sig(report.rmse)}",
            f"n_points = {report.n_points}",
        ],
        args.out,
    )
    return 0


def _cmd_metric(args) -> int:
    records = csvio.read_predictions(args.predictions)
    rate = satisfaction_rate(records, args.tau)
    _emit(
        [
            f"satisfaction_rate = {csvio.format_sig(rate)}",
            f"n_records = {len(records)}",
            f"tau = {csvio.format_sig(args.tau)}",
        ],
        args.out,
    )
    return 0


def _cmd_auction(args) -> int:
    config = load_scenario(args.config)
    if config.q is None:
        raise ValueError("scenario field q: required for an auction run")
    bids = csvio.read_bids(args.bids)
    result = run_auction(bids, config.model(), q=config.q, k=config.k)
    outcome = result.outcome

    def write_table(fh):
        writer = csv.writer(fh)
        writer.writerow(("customer_id", "bid", "allocation", "payment"))
        for i, bid in enumerate(bids):
            writer.writerow(
                (
                    bid.customer_id,
                    csvio.format_sig(bid.bid),
                    int(outcome.allocations[i]),
                    csvio.format_sig(float(outcome.payments[i])),
                )
            )

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_table(fh)
    else:
        write_table(sys.stdout)
    print(f"threshold_price = {csvio.format_sig(result.threshold_price)}")
    print(f"winners = {int(outcome.allocations.sum())}")
    print(f"gross_profit = {csvio.format_sig(outcome.gross_profit)}")
    return 0


def _cmd_optimize(args) -> int:
    config = load_scenario(args.config)
    report = optimal_data_size(config.market, config.curve)
    _emit(
        [
            f"q_star = {csvio.format_sig(report.q_star)}",
            f"optimal_price = {csvio.format_sig(report.price_at_q_star)}",
            f"expected_profit = {csvio.format_sig(report.expected_profit_at_q_star)}",
            f"rejected = {'true' if report.rejected else 'false'}",
        ],
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    config = _with_overrides(load_scenario(args.config), args)
    report = simulate(config)
    _emit(
        [
            f"M = {report.M}",
            f"q = {csvio.format_sig(report.q)}",
            f"threshold_price = {csvio.format_sig(report.threshold_price)}",
            f"trials = {report.trials}",
            f"seed = {report.seed}",
            f"analytic_profit = {csvio.format_sig(report.analytic_profit)}",
            f"empirical_mean = {csvio.format_sig(report.empirical_mean)}",
            f"empirical_std = {csvio.format_sig(report.empirical_std)}",
            f"std_error = {csvio.format_sig(report.std_error)}",
            f"within_three_se = {'true' if report.within_three_se else 'false'}",
        ],
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _with_overrides(load_scenario(args.config), args)
    rows = sweep(config, args.param, args.lo, args.hi, args.steps)
    csvio.write_sweep_csv(rows, args.out or sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="datamarket",
        description="Profit-maximizing auction and purchase planning "
        "for big-data service markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit the utility curve to experiment points")
    p.add_argument("--points", required=True, help="CSV with header q,performance")
    p.add_argument("--out", help="write the fitted coefficients to this file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("metric", help="satisfaction rate of a prediction log")
    p.add_argument("--predictions", required=True, help="CSV with header y_true,y_pred")
    p.add_argument("--tau", type=float, required=True, help="error tolerance")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("auction", help="run the posted-price auction on sealed bids")
    p.add_argument("--bids", required=True, help="CSV with header customer_id,bid")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", help="write the allocation table to this file")
    p.set_defaults(func=_cmd_auction)

    p = sub.add_parser("optimize", help="optimal data purchase for a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the expected profit")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate profit along a parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.add_argument("--out", help="write the result CSV to this file")
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
