"""A fixed reference task that measures how fast the machine is running right now.

On a shared virtual machine the speed one process gets drifts by tens of
percent over tens of seconds: on a 2-vCPU x86-64 VM a simulate command took
1.0 s and 2.0 s within the same two minutes, and across 30-second runs of
one workload the median command time spread by 20-34% (interquartile range
over median).  Runs made at different times would then disagree by more
than any useful bound.  So each workload run times this task just before
every command (and every cold start) and reports times at a reference
speed: the wall time scaled by NOMINAL_S over the task time measured just
before it.  Over ten runs per workload that brought the spread of the
median command time from 20-24% down to 2-6%.  The plain wall-clock figures
are printed and kept beside them.

The task is interpreter arithmetic plus validated frozen-dataclass
construction; among the candidates tried (CSV parsing, float formatting,
small numpy draws, these two) these tracked the commands best.  It uses only
the standard library and numpy, never the datamarket package, so no change
to the program can change it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# The task's typical time on the VM above (Python 3.11, numpy 2.4); it only
# sets the scale of reference seconds.
NOMINAL_S = 0.03


@dataclass(frozen=True)
class _Record:
    key: str
    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"bad value {self.value}")


def reference_seconds() -> float:
    """Wall time of one run of the fixed task."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    values = np.random.default_rng(0).random(10_000)
    records = [_Record(f"c{i}", v) for i, v in enumerate(values.tolist())]
    total = np.fromiter((r.value for r in records), float, len(records)).sum()
    keys = {r.key for r in records}
    elapsed = time.perf_counter() - start
    if not (acc > 0 and total > 0 and len(keys) == len(records)):
        raise RuntimeError("reference task computed the wrong result")
    return elapsed
