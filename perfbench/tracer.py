"""Outside-in layer tracing: wrap the package's public functions at their call sites.

Each layer function is replaced, at the module attribute its caller looks it
up through, by a wrapper that records one span (name, start, end, parent).
Spans stay in memory until the run ends.  A layer's self time is its span
time minus the time of its traced child spans.

Per-object constructors such as CustomerBid are deliberately not wrapped: a
wrapper there costs more than the work it would measure.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# Span name -> the (module, attribute) bindings callers reach it through.
# Modules are looked up by importlib, which returns the sys.modules entry:
# `import datamarket.simulate as m` would give the function simulate, which
# the package __init__ re-exports under the submodule's name.
LAYERS = {
    "cli.cli_main": [("datamarket.cli", "cli_main")],
    "scenario.load_scenario": [("datamarket.cli", "load_scenario")],
    "simulate.simulate": [("datamarket.cli", "simulate")],
    "simulate.sweep": [("datamarket.cli", "sweep")],
    "auction.run_auction": [
        ("datamarket.cli", "run_auction"),
        ("datamarket.simulate", "run_auction"),
    ],
    "market.sample_valuations": [("datamarket.simulate", "sample_valuations")],
    "optimize.expected_profit": [
        ("datamarket.simulate", "expected_profit"),
        ("datamarket.optimize", "expected_profit"),
    ],
    "optimize.optimal_data_size": [
        ("datamarket.cli", "optimal_data_size"),
        ("datamarket.simulate", "optimal_data_size"),
    ],
    "fitting.fit_utility": [("datamarket.cli", "fit_utility")],
    "fitting.satisfaction_rate": [("datamarket.cli", "satisfaction_rate")],
    "csvio.read_bids": [("datamarket.csvio", "read_bids")],
    "csvio.read_predictions": [("datamarket.csvio", "read_predictions")],
    "csvio.read_experiment_points": [("datamarket.csvio", "read_experiment_points")],
    "csvio.write_sweep_csv": [("datamarket.csvio", "write_sweep_csv")],
}


def _rows_read(args, result):
    return {"csvio.rows_read": len(result)}


# Span name -> fn(args, result) giving the work counts of one call.
COUNTERS = {
    "auction.run_auction": lambda args, result: {
        "auction.bids": len(args[0]),
        "auction.winners": int(result.outcome.allocations.sum()),
    },
    "market.sample_valuations": lambda args, result: {"market.draws": len(result)},
    "csvio.read_bids": _rows_read,
    "csvio.read_predictions": _rows_read,
    "csvio.read_experiment_points": _rows_read,
    "csvio.write_sweep_csv": lambda args, result: {"csvio.rows_written": len(args[0])},
    "simulate.sweep": lambda args, result: {"simulate.sweep.rows": len(result)},
}

COUNT_NAMES = (
    "auction.bids",
    "auction.winners",
    "market.draws",
    "csvio.rows_read",
    "csvio.rows_written",
    "simulate.sweep.rows",
)


class Tracer:
    """Records spans and work counts for the wrapped layer functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._open: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent))  # reserve the slot
            self._open.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer binding that exists, restoring the originals on exit."""
        saved = []
        try:
            for name, bindings in LAYERS.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:  # binding gone after a refactor: untraced
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Dump the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds `s`, and `self_s` (s minus traced children).

    Spans are (name, start, end, parent) with parent the index of the
    enclosing span or -1.  A function that re-enters itself would be counted
    twice in `s`; none of the traced layers does.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - inner
    return stats
