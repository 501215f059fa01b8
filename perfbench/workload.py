"""One workload in its own process: a closed loop of CLI commands, each checked.

The loop has one client and no extra threads: it calls datamarket.cli.cli_main
in-process, waits for it to return, checks the output against an oracle, and
only then issues the next command.  Commands repeat a fixed cycle; command i
gets program seed derived from the workload seed and i.

With trace off, it reports end-to-end numbers.  With trace on, every cycle
runs twice with identical arguments, once untraced and once traced (the
order alternates), giving per-layer numbers per cycle and the tracing
overhead.  Run by run.py, which prepares the work directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from reference import NOMINAL_S, reference_seconds
from tracer import COUNT_NAMES, LAYERS, Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = "src/datamarket/data/scenario.paper.cfg"
TRIALS = 100
SWEEP_STEPS = 100
# Grids on the taxi scenario; k and gamma rows re-optimize the purchase.
SWEEP_GRIDS = (("q", 1.0, 100.0), ("k", 0.05, 5.0), ("gamma", 0.1, 3.0),
               ("price", 0.05, 0.5))
CSV_COMMANDS = ("auction", "fit", "metric", "optimize")
CYCLE = {"montecarlo": 1, "sweep": len(SWEEP_GRIDS), "csv_batch": len(CSV_COMMANDS)}


@dataclass
class Command:
    argv: list[str]
    out: Path
    check: Callable[[str, str], int]  # (stdout, out file text) -> work done


def program_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**31


def command(workload: str, i: int, seed: int, workdir: Path, sc, data) -> Command:
    """The i-th command of a workload; the same (i, seed) always gives the same one."""
    s = program_seed(seed, i)
    if workload == "montecarlo":
        out = workdir / "simulate.txt"
        argv = ["simulate", "--config", SCENARIO, "--seed", str(s),
                "--trials", str(TRIALS), "--out", str(out)]
        return Command(argv, out,
                       lambda so, text: oracles.check_simulate(text, sc, s, TRIALS))
    if workload == "sweep":
        param, lo, hi = SWEEP_GRIDS[i % len(SWEEP_GRIDS)]
        out = workdir / "sweep.csv"
        argv = ["sweep", "--config", SCENARIO, "--param", param, "--lo", repr(lo),
                "--hi", repr(hi), "--steps", str(SWEEP_STEPS), "--trials",
                str(TRIALS), "--seed", str(s), "--out", str(out)]
        return Command(argv, out, lambda so, text: oracles.check_sweep(
            text, sc, param, lo, hi, SWEEP_STEPS, TRIALS))
    name = CSV_COMMANDS[i % len(CSV_COMMANDS)]
    out = workdir / f"{name}.out"
    if name == "auction":
        argv = ["auction", "--bids", str(workdir / "bids.csv"), "--config", SCENARIO]
        check = lambda so, text: oracles.check_auction(so, text, sc, data["bids"])
    elif name == "fit":
        argv = ["fit", "--points", str(workdir / "points.csv")]
        check = lambda so, text: oracles.check_fit(text, data["q"], data["performance"])
    elif name == "metric":
        argv = ["metric", "--predictions", str(workdir / "predictions.csv"),
                "--tau", repr(sc["tau"])]
        check = lambda so, text: oracles.check_metric(
            text, data["y_true"], data["y_pred"], sc["tau"])
    else:
        argv = ["optimize", "--config", SCENARIO]
        check = lambda so, text: oracles.check_optimize(text, sc)
    return Command(argv + ["--out", str(out)], out, check)


@dataclass
class Outcome:
    seconds: float
    work: int
    ok: bool
    digest: str
    error: str = ""


def execute(cli, cmd: Command) -> Outcome:
    """Run one command in-process; only the cli_main call is timed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cmd.out.unlink(missing_ok=True)
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.cli_main(cmd.argv)
        seconds = time.perf_counter() - start
    text = cmd.out.read_text(encoding="utf-8") if cmd.out.exists() else ""
    digest = hashlib.sha256((stdout.getvalue() + text).encode()).hexdigest()
    if code != 0:
        return Outcome(seconds, 0, False, digest,
                       f"exit {code}: {stderr.getvalue().strip()}")
    try:
        work = cmd.check(stdout.getvalue(), text)
    except (oracles.Mismatch, ValueError, IndexError) as exc:
        return Outcome(seconds, 0, False, digest, f"{type(exc).__name__}: {exc}")
    return Outcome(seconds, work, True, digest)


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples above it.

    With 10 or fewer samples no such percentile exists and the maximum is
    reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_plain(cli, make, cycle: int, seconds: float) -> dict:
    # Whole cycles only, so every command kind has the same weight in the
    # median and the tail however many cycles fit in the time.  The reference
    # task runs before every command; see reference.py.
    outcomes, records, reference = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for _ in range(cycle):
            reference.append(reference_seconds())
            cmd = make(i)
            result = execute(cli, cmd)
            outcomes.append(result)
            records.append({"index": i, "command": cmd.argv[0], "sha256": result.digest,
                            "error": result.error, "seconds": result.seconds,
                            "reference_s": reference[-1]})
            i += 1
    times = [o.seconds for o in outcomes]
    # a command's time in reference seconds: its wall time scaled by
    # NOMINAL_S over the reference task timed just before it
    ref_times = [t * NOMINAL_S / r for t, r in zip(times, reference)]
    value, pct, n = tail(ref_times)
    work = sum(o.work for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            "work_per_ref_s": work / sum(ref_times),
            "command_p50_ref_s": statistics.median(ref_times),
            "command_tail_ref_s": value,
            "ok_ratio": (len(outcomes) - failed) / len(outcomes),
        },
        "wall": {
            "work_per_s": work / sum(times),
            "command_p50_s": statistics.median(times),
            "command_tail_s": tail(times)[0],
            "reference_task_s": statistics.median(reference),
        },
        "tail_percentile": pct,
        "commands": n,
        "records": records,
        "errors": [o.error for o in outcomes if not o.ok][:5],
    }


def run_traced(cli, make, cycle: int, seconds: float) -> dict:
    tracer = Tracer()
    plain_s = traced_s = 0.0
    attempted = failed = pairs = 0
    errors = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cmds = [make(pairs * cycle + j) for j in range(cycle)]
        digests = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            with tracer.installed() if traced else nullcontext():
                results = [execute(cli, cmd) for cmd in cmds]
            digests[traced] = [r.digest for r in results]
            elapsed = sum(r.seconds for r in results)
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
            attempted += len(results)
            failed += sum(not r.ok for r in results)
            errors += [r.error for r in results if not r.ok]
        if digests[True] != digests[False]:  # tracing must not change output
            failed += 1
            errors.append("traced output differs from untraced output")
        pairs += 1

    stats = layer_stats(tracer.spans)
    metrics = {}
    for name in LAYERS:
        st = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in ("calls", "s", "self_s"):
            metrics[f"{name}.{key}"] = st[key] / pairs
    for name in COUNT_NAMES:
        metrics[name] = tracer.counts[name] / pairs
    cli_s = metrics["cli.cli_main.s"]
    metrics["share.mc_kernel"] = (
        metrics["simulate.simulate.self_s"] + metrics["auction.run_auction.s"]
    ) / cli_s
    metrics["share.sampling"] = metrics["market.sample_valuations.s"] / cli_s
    metrics["share.csv_path"] = (
        metrics["csvio.read_bids.s"]
        + metrics["csvio.read_predictions.s"]
        + metrics["csvio.read_experiment_points.s"]
        + metrics["cli.cli_main.self_s"]
    ) / cli_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "cycles": pairs, "errors": errors[:5], "tracer": tracer}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=tuple(CYCLE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("datamarket.cli")
    sc = oracles.read_scenario(ROOT / SCENARIO)
    data = dict(np.load(args.workdir / "inputs.npz")) if args.workload == "csv_batch" else {}

    def make(i):
        return command(args.workload, i, args.seed, args.workdir, sc, data)

    # warm-up, untimed and from a seed range the loop never reaches: one
    # cycle, so imports and first-call set-up are done before measuring
    cycle = CYCLE[args.workload]
    reference_seconds()
    for j in range(cycle):
        execute(cli, make(10**6 + j))

    if args.trace:
        result = run_traced(cli, make, cycle, args.seconds)
        result.pop("tracer").write(args.workdir / "spans.csv")
    else:
        result = run_plain(cli, make, cycle, args.seconds)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
