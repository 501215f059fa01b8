"""The datamarket benchmark: CLI workloads measured end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single workload prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  `--workload all` runs every workload
untraced and then traced and prints a report of all metrics.

Each run measures set-up (cold starts of the CLI in fresh interpreters),
writes its inputs into a fresh directory under .perfbench/, and runs the
workload in a child process (workload.py) so that peak memory belongs to
that workload alone.  Per-command records (output SHA-256, wall time, the
reference task time before it) and trace spans are kept under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from inputs import make_inputs
from oracles import read_scenario
from reference import NOMINAL_S, reference_seconds
from workload import CYCLE, ROOT, SCENARIO

OUT = ROOT / ".perfbench"
WORKLOADS = tuple(CYCLE)
COLD_STARTS = 7
COLD_START = (
    "import sys; sys.path.insert(0, 'src'); from datamarket.cli import cli_main; "
    f"sys.exit(cli_main(['optimize', '--config', {SCENARIO!r}]))"
)
# one client, one process: keep numpy's BLAS from starting worker threads
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def setup_seconds() -> tuple[float, float]:
    """Median time from a fresh interpreter to a completed `optimize`.

    Returns it in reference seconds (each cold start scaled like a command,
    by the reference task timed just before it) and in wall seconds.
    """
    ref_times, times = [], []
    for i in range(COLD_STARTS + 1):
        reference = reference_seconds()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or "q_star = " not in proc.stdout:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        if i:  # the first start compiles the bytecode caches
            times.append(elapsed)
            ref_times.append(elapsed * NOMINAL_S / reference)
    return statistics.median(ref_times), statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and return its result record."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setup = None if trace else setup_seconds()
        if workload == "csv_batch":
            data = make_inputs(seed, workdir, read_scenario(ROOT / SCENARIO))
            np.savez(workdir / "inputs.npz", **data)
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workload.py")),
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--workdir", str(workdir)],
            cwd=ROOT, env=CHILD_ENV, check=True, timeout=seconds + 120,
        )
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        stem = f"{workload}-seed{seed}"
        if trace:
            shutil.move(workdir / "spans.csv", OUT / f"spans-{stem}.csv")
        else:
            result["metrics"]["setup_s"], result["wall"]["setup_s"] = setup
            (OUT / f"commands-{stem}.json").write_text(
                json.dumps(result.pop("records"), indent=1), encoding="utf-8")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def contract_line(result: dict) -> str:
    unit = units()
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()},
    })


def report(seed: int, seconds: float) -> bool:
    """Run every workload untraced, then traced; print every metric and the checks."""
    unit = units()
    layers = {}
    results = []
    for trace in (0, 1):
        for workload in WORKLOADS:
            result = run_workload(workload, seed, seconds, trace)
            results.append(result)
            print(f"== {workload}{' traced' if trace else ''}: "
                  f"{result['attempted']} commands, {result['failed']} failed")
            for error in result["errors"]:
                print(f"   failed: {error}")
            if trace:
                layers[workload] = result["metrics"]
                print(f"   per-layer values are per cycle, over {result['cycles']} cycles")
            else:
                print(f"   command_tail is p{result['tail_percentile']:.1f} of "
                      f"{result['commands']} commands")
                for name, value in result["wall"].items():
                    print(f"   {name:<36} {value:>14.6g} (wall clock)")
            for name, value in result["metrics"].items():
                print(f"   {name:<36} {value:>14.6g} {unit[name]}")

    mc, sw, cb = layers["montecarlo"], layers["sweep"], layers["csv_batch"]
    checks = [
        ("montecarlo: simulate self + run_auction is most of cli_main",
         mc["share.mc_kernel"] > 0.5,
         f"{mc['share.mc_kernel']:.3f} of {mc['cli.cli_main.s']:.4g} s"),
        ("sweep: sample_valuations is most of cli_main",
         sw["share.sampling"] > 0.5,
         f"{sw['share.sampling']:.3f} of {sw['cli.cli_main.s']:.4g} s"),
        ("csv_batch: csvio reads + cli self is most of cli_main",
         cb["share.csv_path"] > 0.5,
         f"{cb['share.csv_path']:.3f} of {cb['cli.cli_main.s']:.4g} s"),
        ("sweep: run_auction is never called",
         sw["auction.run_auction.calls"] == 0,
         f"{sw['auction.run_auction.calls']:g} calls per cycle"),
    ]
    print("== checks of why each workload was chosen")
    for label, passed, detail in checks:
        print(f"   {'ok  ' if passed else 'FAIL'} {label}: {detail}")
    return all(r["failed"] == 0 for r in results) and all(p for _, p, _ in checks)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "datamarket" / "cli.py").is_file():
        print(f"error: no datamarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if report(args.seed, args.seconds) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    if not args.trace:
        print(f"wall clock: {result['wall']}; command_tail is p"
              f"{result['tail_percentile']:.1f} of {result['commands']} commands")
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
