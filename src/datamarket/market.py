"""Core market model: data cost, diminishing-returns utility, customer valuations.

A service provider buys q raw data units at unit cost k, turns them into a
service whose performance grows logarithmically with q, and sells licenses
to M customers whose willingness to pay is proportional to that performance.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
import reprlib
import sys
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilityCurve",
    "MarketParams",
    "ValuationModel",
    "data_cost",
    "data_utility",
    "valuation_cdf",
    "sample_valuations",
]


@dataclass(frozen=True)
class UtilityCurve:
    """Coefficients of the performance-vs-data-size law a + b*ln(q).

    A positive slope b gives the strictly increasing, diminishing-returns
    shape the market math relies on.  Construction only requires finite
    coefficients so degenerate fits can still be reported; profit
    optimization and scenario loading refuse b <= 0.
    """

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            if not math.isfinite(value := _real(name, getattr(self, name))):
                raise ValueError(f"{name}: must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MarketParams:
    """Market-wide constants for one scenario.

    M      number of customers (positive integer)
    k      cost of one data unit (> 0)
    gamma  influence of service performance on willingness to pay (> 0)
    N      maximum data size available from the collector (> 0)
    """

    M: int
    k: float
    gamma: float
    N: float

    def __post_init__(self):
        require_positive("M", M := _require_integer("M", self.M))
        object.__setattr__(self, "M", M)  # an int, as require_positive returns a float
        for name in ("k", "gamma", "N"):
            value = require_positive(name, _real(name, getattr(self, name)))
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ValuationModel:
    """Uniform distribution of customer valuations on [0, support_max].

    A customer's valuation is preference_degree * performance * gamma with
    preference degrees uniform on [0, 1], so support_max = performance * gamma.
    """

    support_max: float

    def __post_init__(self):
        support_max = require_positive("support_max", _real("support_max", self.support_max))
        object.__setattr__(self, "support_max", support_max)

    @classmethod
    def from_market(cls, curve: UtilityCurve, q: float, gamma: float) -> "ValuationModel":
        """Valuation distribution for a service built from q data units."""
        gamma = require_positive("gamma", _real("gamma", gamma))
        r = require_positive(f"performance at data size {q}", data_utility(q, curve))
        return cls(support_max=r * gamma)


def require_positive(name: str, value, allow_zero: bool = False):
    """value, checked to be finite and > 0 (>= 0), else a ValueError naming `name`.

    A scalar is returned as a Python float.  A Python float or int (what _real
    and _require_integer return) is checked with no numpy; an int past the
    float range is not finite.  Else value is converted by _reals, checked as
    a float if 0-d, and an array is returned as _reals returns it; an empty
    array passes; else the error names its first faulty element, flat index
    `index`.
    """
    kind = "non-negative" if allow_zero else "positive"
    if type(value) is float or type(value) is int:
        if not ((0 <= value if allow_zero else 0 < value) and value <= sys.float_info.max):
            raise ValueError(f"{name}: must be {kind} and finite, got {value}")
        return float(value)
    arr = _reals(name, value)
    if not arr.ndim:  # one value, checked as a float: 6 us faster than by a mask
        return require_positive(name, float(arr), allow_zero)
    _require_all(np.isfinite(arr) & (arr >= 0 if allow_zero else arr > 0),
                 lambda i: f"{name}: must be {kind} and finite, got {arr.flat[i]}")
    return arr


def _require_all(ok, message) -> None:
    """Raise ValueError(message(i)), its `index` i, at the bool array ok's first False."""
    if not ok.all():
        i = int(np.argmin(ok))
        error = ValueError(message(i))
        error.index = i
        raise error


def _require_integer(name: str, value) -> int:
    """value as an int if operator.index takes it, else a ValueError naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a Python float if _reals reads it as one number (0-d), else a
    ValueError naming `name`.  A float skips _reals (about 0.5 us)."""
    if type(value) is float:
        return value
    if (arr := _reals(name, value)).ndim:
        raise ValueError(f"{name}: must be a number, got {reprlib.repr(value)}")
    return float(arr)


def _reals(name: str, value) -> np.ndarray:
    """value as a float64 array if it is a Python int in the float range, or
    numpy reads it with a bool, int or float dtype; else (str, bytes, complex
    or object elements, an int past int64 inside an array-like, or a ragged
    nesting) a ValueError naming `name`, its value cut short by reprlib.  A
    float64 array, strided or not (a field of a CSV table), is returned as it
    is, not copied."""
    try:
        arr = np.asarray(float(value) if type(value) is int else value)
        if arr.dtype.kind in "biuf":
            return arr.astype(float, copy=False)
    except (ValueError, OverflowError):  # a ragged nesting; an int past the float range
        pass
    raise ValueError(f"{name}: must be a number, got {reprlib.repr(value)}")


def _unwrap(out):
    """A Python float for a scalar or 0-d result, else the array."""
    return out if getattr(out, "ndim", 0) else float(out)


def data_cost(q, k: float):
    """Cost k*q of buying q data units at unit cost k; q may be an array."""
    k = require_positive("k", _real("k", k))
    with np.errstate(over="ignore"):  # an infinite cost is reported below
        cost = k * require_positive("data size", q, True)
    return _unwrap(require_positive("data cost k*q", cost, True))


def data_utility(q, curve: UtilityCurve):
    """Service performance a + b*ln(q) at data size q > 0; q may be an array.

    q = 0 means "no service" and is a case for callers, not for the curve.
    The value is deliberately not clamped to [0, 1]: the profit formulas use
    the raw logarithm, and clamping would break their closed forms.
    """
    return _unwrap(curve.a + curve.b * np.log(require_positive("data size", q)))


def valuation_cdf(v, model: ValuationModel):
    """P(valuation <= v): 0 below the support, linear on it, 1 above.

    Accepts scalars or arrays.
    """
    with np.errstate(over="ignore"):  # a quotient past the float range clips to 1
        return _unwrap(np.clip(_reals("valuation", v) / model.support_max, 0.0, 1.0))


def sample_valuations(M: int, model: ValuationModel,
                      seed: int | np.random.Generator) -> np.ndarray:
    """Draw M i.i.d. customer valuations; deterministic for a fixed seed >= 0.

    A Generator given as seed is drawn from as it is, so it advances.
    """
    require_positive("M", M := _require_integer("M", M))
    if not isinstance(seed, np.random.Generator):
        seed = _require_integer("seed", seed)
        if seed < 0:
            raise ValueError(f"seed: must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    # preference degrees uniform on [0, 1], scaled by the support
    return model.support_max * rng.random(M)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), over uint32
# arrays of consecutive seeds
_MASK32 = 2**32 - 1
_POOL = 4  # SeedSequence's pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the hash constants of mix_entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the most seeds hashed at once, so memory does not grow with a run
_BLOCK = 1024


@functools.cache
def _hash_steps(init: int, mult: int, n: int) -> np.ndarray:
    """The constants of n successive hashmix steps, as (xor, multiply) pairs
    of uint32 columns: step i xors with h_i and multiplies by h_(i+1)."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    steps = np.array([h[:-1], h[1:]], dtype=np.uint32)[..., None]
    steps.flags.writeable = False  # shared by every call
    return steps


def _hashmix(values, steps) -> np.ndarray:
    """Row i of values hashed by step i of steps."""
    xor, mult = steps
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x, y) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> np.uint32(16))


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
# the pool words each word is mixed into, in order
_OTHERS = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]


def _seed_words(first_seed: int, n: int) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for each seed
    s = first_seed + t, t < n, as row t of an (n, 4) uint64 array; the seeds
    must share their bits above 32.

    The seed's 32-bit words, lowest first, are SeedSequence's entropy.  The
    lowest varies along the block; the rest are the same for every seed, and a
    seed below 2**128 fills the rest of the pool with zero words, which hash as
    missing words do.  Words past the pool are mixed into every pool word.
    """
    words = [first_seed >> at & _MASK32 for at in range(32, first_seed.bit_length(), 32)]
    extra = words[_POOL - 1:]
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[0] = np.uint32(first_seed & _MASK32) + np.arange(n, dtype=np.uint32)
    for i, word in enumerate(words[:_POOL - 1], 1):
        pool[i] = word
    steps = _hash_steps(_INIT_A, _MULT_A, _POOL * (_POOL + len(extra)))
    pool = _hashmix(pool, steps[:, :_POOL])
    for src, dst in enumerate(_OTHERS):  # every word into each other word
        at = _POOL + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps[:, at:at + 3]))
    for i, word in enumerate(extra, _POOL):
        at = _POOL * i
        pool = _mix(pool, _hashmix(np.uint32(word), steps[:, at:at + _POOL]))
    # generate_state(4, uint64): eight words from the pool, paired low first
    out = _hashmix(np.concatenate((pool, pool)), _STATE_STEPS).astype(np.uint64)
    # PCG64 reads a row's words through a raw pointer, ignoring strides, so
    # the rows must be contiguous
    return np.ascontiguousarray((out[0::2] | (out[1::2] << np.uint64(32))).T)


@functools.cache
def _seed_sequence() -> type:
    """A SeedSequence stand-in that gives PCG64 the words it holds; made on
    first use, as numpy.random takes 15 ms to import and optimize needs none."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _generators(first_seed: int, n: int):
    """Yield n PCG64 bit generators, the t-th in the state
    np.random.default_rng(first_seed + t).bit_generator starts in.

    The seeds are hashed in blocks of at most _BLOCK that end at a multiple of
    2**32, if they reach one, so the seeds of a block share their bits above
    32; PCG64 seeds itself from each seed's words.
    """
    seed_sequence, pcg64 = _seed_sequence(), np.random.PCG64
    seed = operator.index(first_seed)
    end = seed + n
    while seed < end:
        block = min(seed + _BLOCK, end, (seed | _MASK32) + 1) - seed
        for row in _seed_words(seed, block):
            yield pcg64(seed_sequence(row))
        seed += block


# A PCG64 Generator's random() turns each raw uint64 output r into the double
# (r >> 11) / 2**53, so a valuation sample_valuations draws from r is
# support_max * ((r >> 11) / 2**53); the trial loop counts buyers from r alone
_UNITS = 2**53
# the most raw outputs a run holds at once: 0.5 MB, whatever M is and however
# many threads count it
_CHUNK = 65536
# A run counts on several threads only where that was measured to win (an
# alternating-call grid on a 2-vCPU VM, in CHANGES.md): at M >= _SPLIT_M
# draws a trial and _SPLIT_DRAWS draws a thread or more.  Below them the work
# each trial does while holding the GIL (seeding its generator, and taking the
# GIL back after random_raw, the compare and the count) outweighs the second CPU.
_SPLIT_M = 10_000
_SPLIT_DRAWS = 1_500_000


def _unit_threshold(support_max: float, price: float) -> int:
    """The least k with support_max * (k / 2**53) >= price, or 2**53 if no
    k < 2**53 has it.

    Rounding a product by a positive factor is monotone in the other factor,
    so a valuation drawn from raw output r reaches the price exactly when
    r >> 11 >= k.  Two probes two units either side of price / support_max *
    2**53 (at the ends if that is not finite) narrow k's range; bisect_left
    searches what is left.  The quotient is within a unit of k unless it is
    subnormal, so that takes at most four probes where a blind search takes
    54; whatever the probes are, each keeps the search exact.
    """
    def reaches(k):
        return support_max * (k / _UNITS) >= price

    lo, hi = -1, _UNITS  # k is in (lo, hi]: lo does not reach the price, hi does
    # not finite if the price is not, or if it dwarfs the support
    guess = price / support_max * _UNITS
    for probe in ([int(guess) + 2, int(guess) - 2] if math.isfinite(guess)
                  else [_UNITS - 1, 0]):
        if hi - lo > 1:
            k = min(max(probe, lo + 1), hi - 1)
            lo, hi = (lo, k) if reaches(k) else (k, hi)
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=reaches)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _parts(M: int, seeds: int) -> int:
    """How many threads count a run of seeds trials of M draws each: one a
    CPU, as long as each gets a trial and _SPLIT_DRAWS draws, and one only
    below M = _SPLIT_M."""
    if M < _SPLIT_M:
        return 1
    return max(1, min(_cpus(), seeds, M * seeds // _SPLIT_DRAWS))


def _count_buyers(M: int, units, first_seed: int, trials: int) -> np.ndarray:
    """The buyers in each trial of a run, as a (rows, trials) int64 array.

    Row r sells at the price whose unit threshold (see _unit_threshold) is
    units[r], and its trial t counts the valuations that
    sample_valuations(M, model, first_seed + r * trials + t) would draw at or
    above that price.  A row of threshold _UNITS, which no valuation reaches,
    draws nothing and counts 0.

    The drawn seeds are cut into _parts contiguous parts: the caller's thread
    counts the first and one more thread each of the rest.  Each part draws
    its raw outputs a chunk of at most _CHUNK // parts at a time, so the run
    holds at most _CHUNK.  A part seeds each run of adjacent rows, whose seeds
    are adjacent, as one stream hashed in whole blocks.  A fault in any part is
    raised here once every part has stopped.
    """
    counts = np.zeros((len(units), trials), dtype=np.int64)
    flat = counts.reshape(-1)  # row r, trial t at r * trials + t: its seed's offset
    thresholds = {row: np.uint64(unit << 11) for row, unit in enumerate(units)
                  if unit < _UNITS}
    drawing = list(thresholds)
    # drawn seed j is trial j % trials of row drawing[j // trials]
    seeds = len(drawing) * trials
    parts = _parts(M, seeds)
    bounds = [seeds * part // parts for part in range(parts + 1)]
    chunk, faults = _CHUNK // parts, [None] * parts
    sizes = [min(chunk, M - begin) for begin in range(0, M, chunk)]  # a trial's draws

    def count(part):
        start, stop = bounds[part], bounds[part + 1]
        try:
            while start < stop:
                i, rows = start // trials, -(-stop // trials)  # rows: past the part's last
                # drawing[i:j] are adjacent rows: equal drawing[k] - k
                j = next((j for j in range(i + 1, rows)
                          if drawing[j] - j != drawing[i] - i), rows)
                end = min(stop, j * trials)
                at = (drawing[i] - i) * trials + start  # drawn seed start's offset
                for index, bg in enumerate(_generators(first_seed + at, end - start), at):
                    threshold, total = thresholds[index // trials], 0
                    for size in sizes:  # no chunk outlives its count
                        total += np.count_nonzero(bg.random_raw(size) >= threshold)
                    flat[index] = total
                start = end
        except Exception as exc:  # raised in the caller's thread
            faults[part] = exc

    threads = [threading.Thread(target=count, args=(part,)) for part in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        count(0)
    finally:
        for thread in threads:
            thread.join()
    for fault in faults:
        if fault is not None:
            raise fault
    return counts
