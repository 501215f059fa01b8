"""Command-line front end: fit, metric, auction, optimize, simulate, sweep.

Exit codes: 0 success, 1 input or config error, 2 internal error.  All
randomized commands are deterministic given --seed.

A command handler returns (summary, table): the `key = value` summary as a
dict, and a function writing the CSV table to a path or stream.  Either may be
None.  --out takes the table if there is one, else the summary.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields, replace

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


def _with_overrides(config, args):
    updates = {name: getattr(args, name) for name in ("seed", "trials")
               if getattr(args, name, None) is not None}
    return replace(config, **updates) if updates else config


def _cmd_fit(args):
    report = fit_utility(csvio.read_experiment_points(args.points))
    return {"a": report.curve.a, "b": report.curve.b, "rmse": report.rmse,
            "n_points": report.n_points}, None


def _cmd_metric(args):
    records = csvio.read_predictions(args.predictions)
    rate = satisfaction_rate(records, args.tau)
    return {"satisfaction_rate": rate, "n_records": len(records), "tau": args.tau}, None


def _cmd_auction(args):
    config = load_scenario(args.config)
    if config.q is None:
        raise ValueError("scenario field q: required for an auction run")
    bids = csvio.read_bids(args.bids)
    result = run_auction(bids, config.model(), q=config.q, k=config.k)
    outcome = result.outcome
    summary = {"threshold_price": result.threshold_price,
               "winners": int(outcome.allocations.sum()),
               "gross_profit": outcome.gross_profit}
    header = ("customer_id", "bid", "allocation", "payment")
    columns = (outcome.customer_ids, [bid.bid for bid in bids],
               outcome.allocations, outcome.payments)
    return summary, lambda out: csvio.write_table(header, columns, out)


def _cmd_optimize(args):
    config = load_scenario(args.config)
    report = optimal_data_size(config.market, config.curve)
    return {"q_star": report.q_star, "optimal_price": report.price_at_q_star,
            "expected_profit": report.expected_profit_at_q_star,
            "rejected": report.rejected}, None


def _cmd_simulate(args):
    report = simulate(_with_overrides(load_scenario(args.config), args))
    return {field.name: getattr(report, field.name) for field in fields(report)
            if field.name != "trial_profits"}, None


def _cmd_sweep(args):
    config = _with_overrides(load_scenario(args.config), args)
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
    p.add_argument("--points", required=True, help="CSV with header q,performance")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("metric", help="satisfaction rate of a prediction log")
    p.add_argument("--predictions", required=True, help="CSV with header y_true,y_pred")
    p.add_argument("--tau", type=float, required=True, help="error tolerance")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("auction", help="run the posted-price auction on sealed bids")
    p.add_argument("--bids", required=True, help="CSV with header customer_id,bid")
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


def cli_main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code.

    Each distinct warning the command raises goes to stderr once, as
    `warning: <message>`, ahead of any error line; it never changes the code.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)
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
