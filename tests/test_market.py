
import contextlib
import math
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from datamarket import (
    MarketParams,
    UtilityCurve,
    ValuationModel,
    data_cost,
    data_utility,
    expected_profit,
    sample_valuations,
    valuation_cdf,
    virtual_valuation,
)
from datamarket import market
from datamarket.market import (_BLOCK, _CHUNK, _UNITS, _count_buyers, _generators,
                               _seed_words, _unit_threshold, require_positive)

TAXI_CURVE = UtilityCurve(a=0.4944, b=0.0079)


class TestTypes:
    def test_curve_rejects_non_finite(self):
        with pytest.raises(ValueError):
            UtilityCurve(a=float("nan"), b=0.01)
        with pytest.raises(ValueError):
            UtilityCurve(a=0.5, b=float("inf"))

    def test_curve_allows_nonpositive_slope_for_reporting(self):
        # optimization refuses these later; construction must not
        assert UtilityCurve(a=0.5, b=-0.01).b == -0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=0, k=0.5, gamma=1.0, N=100.0),
            dict(M=10.5, k=0.5, gamma=1.0, N=100.0),
            dict(M=float("inf"), k=0.5, gamma=1.0, N=100.0),
            dict(M=float("nan"), k=0.5, gamma=1.0, N=100.0),
            dict(M=10, k=0.0, gamma=1.0, N=100.0),
            dict(M=10, k=-1.0, gamma=1.0, N=100.0),
            dict(M=10, k=0.5, gamma=0.0, N=100.0),
            dict(M=10, k=0.5, gamma=1.0, N=0.0),
        ],
    )
    def test_market_params_invariants(self, kwargs):
        with pytest.raises(ValueError):
            MarketParams(**kwargs)

    def test_market_params_coerces_integral_count(self):
        params = MarketParams(M=10.0, k=0.5, gamma=1.0, N=100.0)
        assert params.M == 10 and isinstance(params.M, int)

    def test_valuation_model_requires_positive_support(self):
        with pytest.raises(ValueError):
            ValuationModel(support_max=0.0)
        with pytest.raises(ValueError):
            ValuationModel(support_max=-1.0)

    def test_model_from_market_matches_performance_times_gamma(self):
        model = ValuationModel.from_market(TAXI_CURVE, 50.0, 2.0)
        assert model.support_max == data_utility(50.0, TAXI_CURVE) * 2.0

    def test_model_from_market_names_a_nonpositive_performance(self):
        with pytest.raises(ValueError, match="^performance at data size 50.0: must be pos"):
            ValuationModel.from_market(UtilityCurve(a=-0.1, b=0.0079), 50.0, 1.0)

    def test_require_positive_refuses_text(self):
        # numpy would parse "0.3"; the check refuses a str without it
        with pytest.raises(TypeError):
            require_positive("bid", "0.3", True)


class TestDataCost:
    def test_zero_data_is_free(self):
        assert data_cost(0.0, 0.5) == 0.0

    def test_linear_values(self):
        assert data_cost(50.0, 0.5) == 25.0
        assert data_cost(39.5, 0.5) == 19.75

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            data_cost(-1.0, 0.5)

    def test_nonpositive_unit_cost_rejected(self):
        with pytest.raises(ValueError):
            data_cost(1.0, 0.0)

    def test_overflowing_cost_rejected(self):
        for q in (50.0, np.float64(50.0), np.array([1.0, 50.0])):
            with pytest.raises(ValueError, match=r"^data cost k\*q: .* got inf"):
                data_cost(q, 1e307)


class TestDataUtility:
    def test_unit_size_returns_intercept(self):
        assert data_utility(1.0, TAXI_CURVE) == TAXI_CURVE.a

    def test_taxi_fit_values(self):
        # frozen from direct evaluation of a + b*ln(q)
        assert data_utility(100.0, TAXI_CURVE) == pytest.approx(
            0.530780844469306, rel=1e-12
        )
        assert data_utility(50.0, TAXI_CURVE) == pytest.approx(
            0.525304981742882, rel=1e-12
        )

    @pytest.mark.parametrize("q", [0.0, -1.0, float("nan")])
    def test_nonpositive_size_rejected(self, q):
        with pytest.raises(ValueError):
            data_utility(q, TAXI_CURVE)

    @given(
        q1=st.floats(min_value=1e-2, max_value=1e4),
        ratio=st.floats(min_value=1.001, max_value=100.0),
        b=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_increasing(self, q1, ratio, b):
        curve = UtilityCurve(a=0.3, b=b)
        assert data_utility(q1 * ratio, curve) > data_utility(q1, curve)

    @given(
        q=st.floats(min_value=1e-2, max_value=1e4),
        rel_step=st.floats(min_value=1e-2, max_value=10.0),
        b=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_diminishing_returns(self, q, rel_step, b):
        curve = UtilityCurve(a=0.3, b=b)
        delta = rel_step * q
        first = data_utility(q + delta, curve) - data_utility(q, curve)
        second = data_utility(q + 2 * delta, curve) - data_utility(q + delta, curve)
        assert first > second


class TestArrayClosedForms:
    """The closed forms on arrays against a per-element math.log reference.

    np.log and math.log may differ by one ulp, hence a relative tolerance
    fixed from the float64 epsilon rather than exact equality.
    """

    params = MarketParams(M=10000, k=0.5, gamma=1.0, N=100.0)
    rel = 1e-14

    def sizes(self):
        rng = np.random.default_rng(5)
        return np.concatenate([[0.0, 1.0, 39.5, 100.0], rng.uniform(0.0, 100.0, 5000)])

    def test_data_utility_matches_reference(self):
        qs = self.sizes()[1:]
        ref = [TAXI_CURVE.a + TAXI_CURVE.b * math.log(q) for q in qs.tolist()]
        assert data_utility(qs, TAXI_CURVE).tolist() == pytest.approx(ref, rel=self.rel)

    def test_data_cost_matches_reference(self):
        qs = self.sizes()
        ref = [0.5 * q for q in qs.tolist()]
        assert data_cost(qs, 0.5).tolist() == pytest.approx(ref, rel=self.rel)

    def test_expected_profit_matches_reference(self):
        p, c = self.params, TAXI_CURVE
        qs = self.sizes()
        ref = [
            p.M * p.gamma * (c.a + c.b * math.log(q)) / 4.0 - p.k * q if q else 0.0
            for q in qs.tolist()
        ]
        got = expected_profit(qs, p, c)
        assert got.tolist() == pytest.approx(ref, rel=self.rel)
        assert got[0] == 0.0

    def test_scalar_in_gives_float_out(self):
        for q in (50.0, np.float64(50.0), 50):
            assert type(data_utility(q, TAXI_CURVE)) is float
            assert type(data_cost(q, 0.5)) is float
            assert type(expected_profit(q, self.params, TAXI_CURVE)) is float
            model = ValuationModel(support_max=1.0)
            assert type(virtual_valuation(q / 100, model)) is float
        assert type(expected_profit(0.0, self.params, TAXI_CURVE)) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_one_bad_element_rejects_the_array(self, bad):
        qs = np.array([1.0, 50.0, bad])
        with pytest.raises(ValueError, match="data size"):
            data_utility(qs, TAXI_CURVE)
        if bad != 0.0:
            with pytest.raises(ValueError, match="data size"):
                data_cost(qs, 0.5)
            with pytest.raises(ValueError, match="data size"):
                expected_profit(qs, self.params, TAXI_CURVE)

    def test_expected_profit_rejects_sizes_above_n(self):
        with pytest.raises(ValueError, match="data size"):
            expected_profit(np.array([1.0, 100.5]), self.params, TAXI_CURVE)


class TestValuationDistribution:
    model = ValuationModel(support_max=0.8)

    def test_cdf_midpoint(self):
        assert valuation_cdf(0.4, self.model) == 0.5

    def test_cdf_outside_support(self):
        assert valuation_cdf(-1.0, self.model) == 0.0
        assert valuation_cdf(1.6, self.model) == 1.0

    def test_cdf_boundaries(self):
        assert valuation_cdf(0.0, self.model) == 0.0
        assert valuation_cdf(self.model.support_max, self.model) == 1.0

    def test_cdf_vectorized_matches_scalar(self):
        vs = np.linspace(-0.5, 1.5, 41)
        vec = valuation_cdf(vs, self.model)
        assert vec.shape == vs.shape
        for v, c in zip(vs, vec):
            assert c == valuation_cdf(float(v), self.model)

    def test_cdf_non_decreasing(self):
        rng = np.random.default_rng(7)
        vs = np.sort(rng.uniform(-1.0, 2.0, size=500))
        cs = valuation_cdf(vs, self.model)
        assert np.all(np.diff(cs) >= 0)


class TestSampleValuations:
    def test_deterministic_for_fixed_seed(self):
        model = ValuationModel(support_max=0.7)
        first = sample_valuations(5, model, seed=123)
        second = sample_valuations(5, model, seed=123)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        model = ValuationModel(support_max=0.7)
        assert not np.array_equal(
            sample_valuations(5, model, seed=1), sample_valuations(5, model, seed=2)
        )

    @pytest.mark.parametrize("M", [0, -1, 2.5, math.nan, math.inf])
    def test_zero_customers_rejected(self, M):
        with pytest.raises(ValueError, match=r"^M: "):
            sample_valuations(M, ValuationModel(support_max=1.0), seed=0)

    def test_support_containment(self):
        model = ValuationModel(support_max=0.3)
        values = sample_valuations(10_000, model, seed=11)
        assert values.min() >= 0.0
        assert values.max() <= model.support_max

    def test_large_sample_mean(self):
        model = ValuationModel(support_max=1.0)
        values = sample_valuations(1_000_000, model, seed=42)
        assert abs(values.mean() - 0.5) < 0.002

    def test_empirical_cdf_converges(self):
        model = ValuationModel(support_max=0.5253049817428823)
        values = sample_valuations(1_000_000, model, seed=3)
        result = stats.kstest(values, lambda v: valuation_cdf(v, model))
        assert result.statistic < 0.01


def default_state(seed):
    return np.random.default_rng(seed).bit_generator.state


# the seeds on either side of each word a seed's entropy gains
WORD_BOUNDARIES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96,
                   2**128 - 1, 2**128, 2**160 - 1, 2**160, 2**200]


class TestSeedingKernel:
    """Trial generators start where np.random.default_rng(seed) starts."""

    @pytest.mark.parametrize("seed", WORD_BOUNDARIES)
    def test_state_equals_default_rng(self, seed):
        words = _seed_words(seed, 1)
        assert words.shape == (1, 4) and words.dtype == np.uint64
        assert words[0].tolist() == np.random.SeedSequence(seed).generate_state(
            4, np.uint64).tolist()
        assert [bg.state for bg in _generators(seed, 1)] == [default_state(seed)]

    @pytest.mark.parametrize("n", [1, 48, _BLOCK + 48])
    @pytest.mark.parametrize("boundary", WORD_BOUNDARIES[1:])
    def test_runs_straddling_a_boundary(self, boundary, n):
        first = max(0, boundary - n // 2)
        states = [bg.state for bg in _generators(first, n)]
        assert states == [default_state(s) for s in range(first, first + n)]

    @pytest.mark.parametrize("first", [0, 2**64 + 5])
    def test_runs_past_one_block(self, first):
        n = 2 * _BLOCK + 48
        states = [bg.state for bg in _generators(first, n)]
        assert states == [default_state(s) for s in range(first, first + n)]

    @settings(deadline=None)
    @given(first_seed=st.integers(0, 2**140), n=st.integers(1, 48))
    def test_generators_match_default_rng(self, first_seed, n):
        states = [bg.state for bg in _generators(first_seed, n)]
        assert states == [default_state(s) for s in range(first_seed, first_seed + n)]

    def test_each_trial_has_its_own_generator(self):
        first, second = _generators(7, 2)
        first.random_raw(3)
        assert second.state == default_state(8)

    def test_a_cold_optimize_does_not_load_numpy_random(self):
        # numpy.random takes about 15 ms to import, and only a run that draws
        # needs it (numpy before 2.0 imports it with numpy itself)
        code = ("import contextlib, io, sys, numpy\n"
                "loaded = 'numpy.random' in sys.modules\n"
                "from datamarket import taxi_scenario_path\n"
                "from datamarket.cli import cli_main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli_main(['optimize', '--config', str(taxi_scenario_path())]) == 0\n"
                "print(loaded, 'numpy.random' in sys.modules)\n")
        src = str(Path(market.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded, after = proc.stdout.split()
        assert after == loaded


def replayed_count(M, model, price, seed):
    return int(np.count_nonzero(sample_valuations(M, model, seed) >= price))


def raw_count(M, model, price, seed):
    """The count _count_buyers makes of the one trial of seed, and the bit
    generator it drew from (None if it took none)."""
    taken, generators = [], market._generators

    def keeping(first_seed, n):
        for bit_generator in generators(first_seed, n):
            taken.append(bit_generator)
            yield bit_generator

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_generators", keeping)
        ((count,),) = _count_buyers(M, [_unit_threshold(model.support_max, price)],
                                    seed, 1).tolist()
    assert len(taken) <= 1
    return count, (taken[0] if taken else None)


def assert_least_unit(support, price):
    """_unit_threshold gives the least k whose valuation reaches the price."""
    unit = _unit_threshold(support, price)
    assert 0 <= unit <= _UNITS
    assert unit == _UNITS or support * (unit / _UNITS) >= price
    assert unit == 0 or not support * ((unit - 1) / _UNITS) >= price


class TestBuyerCount:
    """Raw draws counted against one integer threshold give the count of the
    valuations sample_valuations draws at or above the price, exactly."""

    @settings(deadline=None)
    @given(log_support=st.floats(-6.0, 6.0), M=st.integers(1, 40),
           seed=st.integers(0, 2**64), pick=st.integers(0, 39))
    def test_count_equals_replay(self, log_support, M, seed, pick):
        support = 10.0**log_support
        model = ValuationModel(support_max=support)
        drawn = float(sample_valuations(M, model, seed)[pick % M])
        for price in (drawn, math.nextafter(drawn, -math.inf),
                      math.nextafter(drawn, math.inf), 0.0, support,
                      math.nextafter(support, 0.0), 1e308):
            count, _ = raw_count(M, model, price, seed)
            assert count == replayed_count(M, model, price, seed)
            assert_least_unit(support, price)

    @pytest.mark.parametrize("M", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_chunks_keep_the_stream(self, M):
        model = ValuationModel(support_max=0.7)
        price = float(np.median(sample_valuations(M, model, 5)))
        count, bg = raw_count(M, model, price, 5)
        assert count == replayed_count(M, model, price, 5)
        replay = np.random.default_rng(5)
        replay.random(M)
        assert bg.state == replay.bit_generator.state

    def test_a_draw_at_the_threshold_counts(self):
        # at support 1 raw output r gives exactly the valuation (r >> 11) / 2**53;
        # draw 308 of seed 0 has its low 11 bits zero, so priced at its own
        # valuation it equals the raw threshold
        raw = int(np.random.default_rng(0).bit_generator.random_raw(309)[308])
        assert raw % 2048 == 0
        model = ValuationModel(support_max=1.0)
        price = float(sample_valuations(309, model, 0)[308])
        assert _unit_threshold(1.0, price) << 11 == raw
        assert raw_count(309, model, price, 0)[0] == replayed_count(309, model, price, 0)

    @pytest.mark.parametrize("support, price", [
        (1e-6, 1e308), (5e-324, 1e308), (1e308, 1e308), (1.0, 1.0),
        (1e-310, 1e-320), (1e-300, 5e-324), (1.0, 5e-324), (2.0, -1.0), (1.0, -5e-324),
        (1.0, 0.5), (0.7, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
    def test_extreme_prices(self, support, price):
        # no float-to-int overflow; a subnormal quotient falls back on bisection
        assert_least_unit(support, price)
        model = ValuationModel(support_max=support)
        count, bg = raw_count(5, model, price, 9)
        assert count == replayed_count(5, model, price, 9)
        if _unit_threshold(support, price) == _UNITS:  # no valuation reaches the price
            assert bg is None

    def test_a_normal_quotient_takes_four_probes(self):
        # each probe multiplies the support once; a blind bisection takes 54.
        # A price at or above the support takes one probe, one at or below 0 two.
        class Counting(float):
            probes = 0

            def __mul__(self, other):
                Counting.probes += 1
                return float(self) * other

        rng = np.random.default_rng(2)
        for support in 10.0 ** rng.uniform(-6.0, 6.0, 200):
            support = float(support)
            for price, most in ((support * float(rng.random()), 4),
                                (math.nextafter(support, 0.0), 4), (0.0, 2),
                                (-1.0, 2), (-math.inf, 2), (support, 1),
                                (2.0 * support, 1), (1e308, 1), (math.inf, 1)):
                Counting.probes = 0
                unit = _unit_threshold(Counting(support), price)
                assert unit == _unit_threshold(support, price)
                assert Counting.probes <= most, (support, price)


@contextlib.contextmanager
def split_into(parts, chunk=_CHUNK):
    """Runs split into up to parts threads whatever their size, each drawing
    chunks of at most chunk // parts raw outputs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_cpus", lambda: parts)
        patch.setattr(market, "_SPLIT_M", 1)
        patch.setattr(market, "_SPLIT_DRAWS", 1)
        patch.setattr(market, "_CHUNK", chunk)
        yield


def replayed_counts(M, units, first_seed, trials):
    """Row r, trial t: the valuations of sample_valuations at support 1 and
    seed first_seed + r * trials + t at or above the price of unit units[r]."""
    model = ValuationModel(support_max=1.0)
    return [[replayed_count(M, model, unit / _UNITS, first_seed + r * trials + t)
             if unit < _UNITS else 0 for t in range(trials)]
            for r, unit in enumerate(units)]


def assert_split_keeps_the_counts(M, units, first_seed, trials, parts, chunk=_CHUNK):
    with split_into(1, chunk):
        serial = _count_buyers(M, units, first_seed, trials)
    with split_into(parts, chunk):
        split = _count_buyers(M, units, first_seed, trials)
    assert serial.shape == (len(units), trials) and serial.dtype == np.int64
    assert split.dtype == np.int64
    assert split.tolist() == serial.tolist()
    return serial


# unit thresholds of rows: all buy, none can (a rejected row, or a price past
# the support), and prices inside the support
UNIT = st.one_of(st.just(0), st.just(_UNITS), st.integers(0, _UNITS))


class TestSplitRun:
    """A run counted on 2 to 4 threads counts what one thread counts."""

    @settings(deadline=None, max_examples=60)
    @given(M=st.integers(1, 40), units=st.lists(UNIT, max_size=5),
           first_seed=st.integers(0, 2**70), trials=st.integers(1, 9),
           parts=st.integers(2, 4), chunk=st.integers(4, 16))
    def test_counts_equal_one_threads(self, M, units, first_seed, trials, parts, chunk):
        serial = assert_split_keeps_the_counts(M, units, first_seed, trials, parts, chunk)
        assert serial.tolist() == replayed_counts(M, units, first_seed, trials)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    @pytest.mark.parametrize("first_seed", [2**32 - 7, 2**64 - 11, 2**64, 2**64 + 3,
                                            2**96 - 5, 2**130])
    def test_seed_ranges_across_word_boundaries(self, first_seed, parts):
        units = [_UNITS // 2, _UNITS // 3, _UNITS // 5]
        serial = assert_split_keeps_the_counts(50, units, first_seed, 5, parts, 16)
        assert serial.tolist() == replayed_counts(50, units, first_seed, 5)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_rows_that_draw_nothing_keep_later_seeds(self, parts):
        # a rejected row and a price past the support draw nothing and count 0
        beyond = _unit_threshold(0.7, 1.5)
        assert beyond == _UNITS
        units = [_UNITS, _UNITS // 2, beyond, 0, _UNITS, _UNITS // 4]
        serial = assert_split_keeps_the_counts(30, units, 11, 4, parts)
        assert serial.tolist() == replayed_counts(30, units, 11, 4)
        assert serial[[0, 2, 4]].tolist() == [[0] * 4] * 3
        assert serial[3].tolist() == [30] * 4

    def test_no_row_and_no_drawing_row_count_nothing(self):
        with split_into(4):
            assert _count_buyers(10, [], 0, 3).shape == (0, 3)
            assert _count_buyers(10, [_UNITS, _UNITS], 0, 3).tolist() == [[0] * 3] * 2

    def test_chunks_split_a_trial_across_parts(self):
        # 2 * _CHUNK + 1 draws a trial, in chunks of _CHUNK // 3
        M, units = 2 * _CHUNK + 1, [_UNITS // 2, _UNITS // 7]
        serial = assert_split_keeps_the_counts(M, units, 5, 2, 3)
        assert serial.tolist() == replayed_counts(M, units, 5, 2)


class TestSplitThreads:
    def test_a_split_run_leaves_no_thread(self):
        before = threading.active_count()
        with split_into(4):
            _count_buyers(20, [_UNITS // 2] * 3, 0, 7)
        assert threading.active_count() == before

    @pytest.mark.parametrize("faulty", [0, 1, 3])
    def test_a_fault_in_a_part_is_raised_once_every_part_stopped(self, faulty):
        # 4 parts of 2 seeds each; the faulty part's _generators raises, and
        # every other part still counts to its end
        before, generators, finished = threading.active_count(), market._generators, []

        def failing(first_seed, n):
            if first_seed == 2 * faulty:
                raise RuntimeError("injected")
            yield from generators(first_seed, n)
            finished.append(first_seed)

        with split_into(4), pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "_generators", failing)
            with pytest.raises(RuntimeError, match="^injected$"):
                _count_buyers(10, [_UNITS // 2], 0, 8)
        assert threading.active_count() == before
        assert sorted(finished) == [2 * part for part in range(4) if part != faulty]

    def test_only_runs_over_both_floors_split(self, monkeypatch):
        monkeypatch.setattr(market, "_cpus", lambda: 2)
        M, floor = market._SPLIT_M, market._SPLIT_DRAWS
        seeds = -(-2 * floor // M)  # the fewest trials that give each part floor draws
        assert market._parts(M, seeds) == 2
        assert market._parts(M, seeds - 1) == 1
        assert market._parts(M - 1, 10**6) == 1
        assert market._parts(10**9, 1) == 1  # a part counts whole trials
        monkeypatch.setattr(market, "_cpus", lambda: 8)
        assert market._parts(M, seeds) == 2 and market._parts(M, 8 * seeds) == 8
        assert market._parts(M, 100 * seeds) == 8

    def test_cpus_are_those_the_process_may_run_on(self, monkeypatch):
        assert market._cpus() == len(os.sched_getaffinity(0))
        # this process's set (pid 0), not another process's
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2} if pid == 0 else {0})
        assert market._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert market._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
        assert market._cpus() == 1

    def test_one_cpu_or_a_run_below_the_floors_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(market, "threading", types.SimpleNamespace(Thread=refuse))
        monkeypatch.setattr(market, "_cpus", lambda: 4)
        M, floor = market._SPLIT_M, market._SPLIT_DRAWS
        units = [_UNITS // 2]
        _count_buyers(M - 1, units, 0, 2 * floor // (M - 1) + 1)  # below the M floor
        _count_buyers(M, units, 0, 2 * floor // M - 1)  # below the draw floor
        monkeypatch.setattr(market, "_cpus", lambda: 1)
        _count_buyers(10 * M, units, 0, 4 * floor // (10 * M))  # one CPU

    def test_a_run_splits_without_concurrent_futures(self):
        # a cold optimize, and a run split across threads, import no executor
        code = ("import contextlib, io, sys\n"
                "from datamarket import market, taxi_scenario_path\n"
                "from datamarket.cli import cli_main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli_main(['optimize', '--config', str(taxi_scenario_path())]) == 0\n"
                "cold = 'concurrent.futures' in sys.modules\n"
                "market._cpus = lambda: 2\n"
                "market._SPLIT_M = market._SPLIT_DRAWS = 1\n"
                "market._count_buyers(10, [2**52], 0, 4)\n"
                "print(cold, 'concurrent.futures' in sys.modules)\n")
        src = str(Path(market.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]
