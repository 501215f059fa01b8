
import contextlib
import math
import os
import re
import reprlib
import subprocess
import sys
import threading
import types
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from datamarket import (
    MarketParams,
    ScenarioConfig,
    UtilityCurve,
    ValuationModel,
    concavity_check,
    data_cost,
    data_utility,
    evaluate_fit,
    expected_profit,
    grid_argmax,
    hit_rate,
    inverse_virtual,
    least_squares_fit,
    optimal_price,
    posted_price,
    sale_profit,
    sample_valuations,
    sweep,
    taxi_scenario,
    valuation_cdf,
    virtual_valuation,
)
from datamarket import market
from datamarket.csvio import read_bids
from datamarket.market import (_BLOCK, _CHUNK, _UNITS, _count_buyers, _generators, _reals,
                               _seed_words, _unit_threshold, require_positive)
from datamarket.optimize import grid

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

    def test_market_params_stores_an_integer_count_as_an_int(self):
        params = MarketParams(M=np.int64(10), k=0.5, gamma=1.0, N=100.0)
        assert params.M == 10 and type(params.M) is int
        assert sample_valuations(np.int64(3), ValuationModel(support_max=1.0),
                                 seed=0).shape == (3,)

    @pytest.mark.parametrize("M", [10.0, np.float64(10.0), "10", math.nan, math.inf])
    def test_a_count_that_is_not_an_integer_is_refused_naming_M(self, M):
        # the rule trials, seed and steps follow: an integral float is no integer
        bad = f"^M: must be an integer, got {re.escape(repr(M))}$"
        with pytest.raises(ValueError, match=bad):
            MarketParams(M=M, k=0.5, gamma=1.0, N=100.0)
        with pytest.raises(ValueError, match=bad):
            sample_valuations(M, ValuationModel(support_max=1.0), seed=0)

    @pytest.mark.parametrize("M, bad", [(0, "must be positive and finite, got 0"),
                                        (-1, "must be positive and finite, got -1"),
                                        (2.5, "must be an integer, got 2.5")])
    def test_a_count_keeps_its_message(self, M, bad):
        with pytest.raises(ValueError, match=f"^M: {bad}$"):
            MarketParams(M=M, k=0.5, gamma=1.0, N=100.0)
        with pytest.raises(ValueError, match=f"^M: {bad}$"):
            sample_valuations(M, ValuationModel(support_max=1.0), seed=0)

    @pytest.mark.parametrize("value", [np.array([0.5]), [0.5, 1.0], [0.5, [1.0]],
                                       np.ones((1, 1)), "0.5", b"1"])
    def test_a_model_parameter_that_is_not_a_number_is_refused_naming_it(self, value):
        for cls, good in ((MarketParams, dict(M=10, k=0.5, gamma=1.0, N=100.0)),
                          (UtilityCurve, dict(a=0.5, b=0.01)),
                          (ValuationModel, dict(support_max=1.0))):
            for name in good.keys() - {"M"}:
                bad = f"^{name}: must be a number, got {re.escape(repr(value))}$"
                with pytest.raises(ValueError, match=bad):
                    cls(**{**good, name: value})

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

    def test_require_positive_takes_the_float_range_and_no_more(self):
        # an int past the largest float is not finite, however float() rounds it
        assert require_positive("M", sys.float_info.max) == sys.float_info.max
        for value in (int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(ValueError, match="^M: must be positive and finite, got 1"):
                require_positive("M", value)

    def test_require_positive_returns_a_python_float_for_any_scalar(self):
        # so numpy never sees a Python int, and a 0-d value leaves as a float
        for value in (3, 2**70, True, 0.5, np.float64(0.5), np.int64(3), np.array(0.5)):
            kept = require_positive("q", value)
            assert type(kept) is float and kept == float(value)

    def test_require_positive_refuses_text(self):
        # numpy would parse "0.3"; _reals refuses a str as no number
        with pytest.raises(ValueError, match="^bid: must be a number, got '0.3'$"):
            require_positive("bid", "0.3", True)


# a value a caller may pass for one scalar by mistake, by label
BAD_VALUES = {
    "'0.5'": "0.5", "b'1'": b"1", "None": None, "[1.0]": [1.0], "1+0j": 1 + 0j, "{}": {},
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "True": True,
    "10**400": 10**400, "array('0.5')": np.array("0.5"), "array(b'1')": np.array(b"1"),
    "complex128": np.complex128(0.5 + 1j), "array(0.5+1j)": np.array(0.5 + 1j),
    "array(None)": np.array(None, dtype=object), "Fraction(1, 2)": Fraction(1, 2),
}
SMALL = ScenarioConfig(M=5, k=0.5, gamma=1.0, N=100.0, a=0.4944, b=0.0079, q=50.0, trials=1)
Y = np.array([600.0, 630.0])
MARKET = dict(M=10, k=0.5, gamma=1.0, N=100.0)


def kept_field(build, name):
    """A boundary: build(name=value), with what it stored for name returned."""
    return lambda value: getattr(build(**{name: value}), name)


# each scalar boundary: the pattern its errors start with, and a call taking
# one value there and returning what it keeps of it
SCALAR_BOUNDARIES = {
    **{f"UtilityCurve.{name}": (name, kept_field(partial(UtilityCurve, a=0.5, b=0.01), name))
       for name in ("a", "b")},
    **{f"MarketParams.{name}": (name, kept_field(partial(MarketParams, **MARKET), name))
       for name in MARKET},
    "ValuationModel.support_max": ("support_max", kept_field(ValuationModel, "support_max")),
    **{f"ScenarioConfig.{field.name}": (
        f"scenario field {field.name}",
        kept_field(lambda **value: replace(taxi_scenario(), **value), field.name))
       for field in fields(ScenarioConfig)},
    "grid.lo": ("grid bound lo", lambda value: grid(value, 2.0, 3).tolist()[0]),
    # lo < hi names both bounds; sweep's own range rules name the bound they test
    "grid.hi": ("grid bound hi|need lo < hi", lambda value: grid(0.0, value, 3).tolist()[-1]),
    "sweep.lo": ("grid bound lo|price sweep needs lo",
                 lambda value: sweep(SMALL, "price", value, 2.0, 2)[0].value),
    "sweep.hi": ("grid bound hi|need lo < hi",
                 lambda value: sweep(SMALL, "price", 0.5, value, 2)[-1].value),
    "hit_rate.tau": ("tolerance", lambda value: hit_rate(Y, Y, value)),
    "data_cost.k": ("k", lambda value: data_cost(1.0, value)),
    "ValuationModel.from_market.gamma": (
        "gamma", lambda value: ValuationModel.from_market(TAXI_CURVE, 50.0, value).support_max),
    "optimal_price.gamma": ("gamma", lambda value: optimal_price(TAXI_CURVE, 50.0, value)),
    "inverse_virtual.y": ("y", lambda value: inverse_virtual(value, ValuationModel(1.0))),
    "sale_profit.price": ("price", lambda value: sale_profit(3, value, 1.0)),
    "sale_profit.cost": ("cost", lambda value: sale_profit(3, 0.5, value)),
}
# the bad values a boundary takes by design: True, which is the number 1
# everywhere, and these
ACCEPTED = {
    ("ScenarioConfig.q", "None"), ("ScenarioConfig.tau", "None"),  # optional
    # performance below 0 at data size 1 warns, and a fitted slope may be negative
    ("UtilityCurve.a", "-1"), ("ScenarioConfig.a", "-1"), ("UtilityCurve.b", "-1"),
    # check_draws refuses a run that draws too much, when it runs
    ("ScenarioConfig.seed", "10**400"), ("ScenarioConfig.trials", "10**400"),
    ("grid.lo", "-1"),  # a grid may start below 0
    ("inverse_virtual.y", "-1"),  # the foot of the image [-1, 1]
    # a sale's price and cost take any value: sale_profit only does the sum
    *((f"sale_profit.{name}", label) for name in ("price", "cost")
      for label in ("nan", "inf", "-inf", "-1")),
}
# the bad values a boundary refuses naming another field: the taxi q = 50
# lies past N = True = 1.0
NAMED_ELSEWHERE = {("ScenarioConfig.N", "True"): r"scenario field q: must lie in \(0, 1\.0\]"}


@pytest.mark.parametrize("boundary", sorted(SCALAR_BOUNDARIES))
@settings(deadline=None)
@given(label=st.sampled_from(sorted(BAD_VALUES)))
def test_every_scalar_boundary_keeps_a_number_or_names_itself(boundary, label):
    pattern, build = SCALAR_BOUNDARIES[boundary]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # performance outside [0, 1]
            kept = build(BAD_VALUES[label])
    except ValueError as exc:
        pattern = NAMED_ELSEWHERE.get((boundary, label), rf"(?:{pattern})\b")
        assert re.match(pattern, str(exc)), (boundary, label, str(exc))
        return
    assert label == "True" or (boundary, label) in ACCEPTED, (boundary, label, kept)
    assert type(kept) in (int, float) or (kept is None and label == "None"), (boundary, kept)


# a value a caller may pass for an array by mistake, by label: text, None, a
# complex, a ragged nesting, object elements and ints past int64
BAD_ARRAYS = {
    "['0.5']": ["0.5"], "[b'1']": [b"1"], "[None]": [None], "[1+0j]": [1 + 0j],
    "[0.5, [1.0]]": [0.5, [1.0]], "array(['0.5'])": np.array(["0.5"]),
    "array([0.5], object)": np.array([0.5], dtype=object), "[10**400]": [10**400],
    "[2**70]": [2**70],
}
GOOD = np.array([1.0])
MODEL = ValuationModel(support_max=1.0)
PARAMS = MarketParams(**MARKET)
# each array boundary: the name its errors start with, and a call taking one
# array there
ARRAY_BOUNDARIES = {
    "valuation_cdf": ("valuation", lambda value: valuation_cdf(value, MODEL)),
    "virtual_valuation": ("valuation", lambda value: virtual_valuation(value, MODEL)),
    "posted_price": ("bid", lambda value: posted_price(value, MODEL)),
    "data_cost.q": ("data size", lambda value: data_cost(value, 0.5)),
    "data_utility.q": ("data size", lambda value: data_utility(value, TAXI_CURVE)),
    "expected_profit.q": ("data size", lambda value: expected_profit(value, PARAMS, TAXI_CURVE)),
    "concavity_check.q": ("data size", lambda value: concavity_check(PARAMS, TAXI_CURVE, value)),
    "hit_rate.y_true": ("y_true", lambda value: hit_rate(value, GOOD, 0.5)),
    "hit_rate.y_pred": ("y_pred", lambda value: hit_rate(GOOD, value, 0.5)),
    "least_squares_fit.q": ("data size", lambda value: least_squares_fit(value, GOOD)),
    "least_squares_fit.alpha": ("performance", lambda value: least_squares_fit(GOOD, value)),
    "evaluate_fit.q": ("data size", lambda value: evaluate_fit(TAXI_CURVE, value, GOOD)),
    "evaluate_fit.alpha": ("performance", lambda value: evaluate_fit(TAXI_CURVE, GOOD, value)),
    "grid_argmax.objective": ("objective", lambda value: grid_argmax(lambda xs: value, 0, 1, 2)),
}


@pytest.mark.parametrize("boundary", sorted(ARRAY_BOUNDARIES))
@settings(deadline=None)
@given(label=st.sampled_from(sorted(BAD_ARRAYS)))
def test_every_array_boundary_names_itself_for_what_is_no_number(boundary, label):
    name, call = ARRAY_BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=rf"^{name}: must be a number, got "):
        call(BAD_ARRAYS[label])


def test_an_array_that_is_no_number_keeps_its_message_short():
    for value in (["0.5"] * 10**5, np.array(["0.5"] * 10**5), [[0.5]] * 10**5 + [0.5]):
        with pytest.raises(ValueError, match="^bid: must be a number") as error:
            posted_price(value, MODEL)
        assert len(str(error.value)) < 200


def test_reals_returns_a_float64_array_as_it_is_and_converts_other_numbers(tmp_path):
    path = tmp_path / "bids.csv"
    path.write_text("customer_id,bid\na,0.5\nb,1.5\n", encoding="utf-8")
    column = np.ones(3)
    for value in (column, column[::2], read_bids(path)["bid"], np.ones((2, 2)).T):
        arr = _reals("bid", value)  # a CSV table's strided field is not copied
        assert np.shares_memory(arr, value) and arr.dtype == np.float64
    for value, want in (([True, 2], [1.0, 2.0]), (np.arange(3, dtype=np.uint8), [0.0, 1.0, 2.0]),
                        (np.array([-3, 2**62]), [-3.0, 2.0**62]), (2**63, 2.0**63),
                        (2**70, 2.0**70), (np.float32(0.5), 0.5)):
        arr = _reals("bid", value)
        assert arr.dtype == np.float64 and not np.shares_memory(arr, value)
        assert arr.tolist() == want


BIG = 2**70
# each entry taking a data size or a valuation, the name its errors start
# with, and a call of it
BIG_INT_ENTRIES = {
    "data_utility": ("data size", lambda q: data_utility(q, TAXI_CURVE)),
    "data_cost": ("data size", lambda q: data_cost(q, 0.5)),
    "expected_profit": ("data size", lambda q: expected_profit(
        q, MarketParams(M=10, k=0.5, gamma=1.0, N=1e30), TAXI_CURVE)),
    "concavity_check": ("data size", lambda q: concavity_check(PARAMS, TAXI_CURVE, q)),
    "valuation_cdf": ("valuation", lambda v: valuation_cdf(v, ValuationModel(2.0**72))),
    "optimal_price": ("data size", lambda q: optimal_price(TAXI_CURVE, q, 1.0)),
    "ValuationModel.from_market": (
        "data size", lambda q: ValuationModel.from_market(TAXI_CURVE, q, 1.0).support_max),
}


@pytest.mark.parametrize("entry", sorted(BIG_INT_ENTRIES))
def test_an_int_past_int64_is_the_float_it_is_alone_and_no_number_in_a_list(entry):
    name, call = BIG_INT_ENTRIES[entry]
    got, want = call(BIG), call(float(BIG))
    assert type(got) is float and got.hex() == want.hex()
    # numpy holds [2**70] only as an object, and a Fraction is no number it reads
    for value in ([BIG], Fraction(1, 2)):
        with pytest.raises(ValueError, match=f"^{name}: must be a number, got "
                                             f"{re.escape(reprlib.repr(value))}$"):
            call(value)


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

    def test_no_sizes_give_no_profits(self):
        assert expected_profit(np.array([]), self.params, TAXI_CURVE).shape == (0,)


# M * gamma = 1e309 is inf in floating point, so every bought size overflows
OVERFLOWING = MarketParams(M=10000, k=0.5, gamma=1e305, N=100.0)
ABOVE_N = math.nextafter(100.0, math.inf)
# each array rule: (the call on one column xs, the values xs is drawn from,
# whether element i of xs breaks the rule, the message naming it)
ARRAY_RULES = {
    "positive": (lambda xs: require_positive("x", xs),
                 (1.0, 5e-324, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf),
                 lambda xs, i: not (math.isfinite(xs[i]) and xs[i] > 0),
                 lambda xs, i: f"x: must be positive and finite, got {xs[i]}"),
    "non-negative": (lambda xs: require_positive("x", xs, True),
                     (1.0, 0.0, -0.0, -5e-324, -1.0, math.nan, math.inf),
                     lambda xs, i: not (math.isfinite(xs[i]) and xs[i] >= 0),
                     lambda xs, i: f"x: must be non-negative and finite, got {xs[i]}"),
    "performance": (lambda xs: evaluate_fit(TAXI_CURVE, np.ones(len(xs)), xs),
                    (0.0, 0.5, 1.0, -0.0, -0.5, 1.5, math.nan, math.inf),
                    lambda xs, i: not 0.0 <= xs[i] <= 1.0,
                    lambda xs, i: f"performance must lie in [0, 1], got {xs[i]}"),
    "predictions": (lambda xs: hit_rate(xs, xs[::-1], 1.0),
                    (0.0, 1e308, -1e308, math.nan, math.inf, -math.inf),
                    lambda xs, i: not (math.isfinite(xs[i]) and math.isfinite(xs[-1 - i])),
                    lambda xs, i: f"prediction values must be finite, "
                                  f"got ({xs[i]}, {xs[::-1][i]})"),
    "valuation": (lambda xs: virtual_valuation(xs, ValuationModel(support_max=2.0)),
                  (0.0, 1.0, 2.0, -0.0, -1.0, math.nextafter(2.0, 3.0), math.nan),
                  lambda xs, i: not 0.0 <= xs[i] <= 2.0,
                  lambda xs, i: f"valuation {xs[i]} outside the support [0, 2.0]"),
    "at most N": (lambda xs: expected_profit(xs, TestArrayClosedForms.params, TAXI_CURVE),
                  (0.0, 50.0, 100.0, ABOVE_N, 200.0),
                  lambda xs, i: xs[i] > 100.0,
                  lambda xs, i: f"data size must lie in [0, 100.0], got {xs[i]}"),
    "overflow": (lambda xs: expected_profit(xs, OVERFLOWING, TAXI_CURVE),
                 (0.0, 20.0, 50.0),
                 lambda xs, i: xs[i] > 0.0,
                 lambda xs, i: f"expected profit overflows at data size {xs[i]}: "
                               f"M*gamma*r(q)/4 - k*q = inf"),
    "objective": (lambda ys: grid_argmax(lambda _: ys, 0.0, 1.0, len(ys)),
                  (0.0, 1.0, math.nan, math.inf, -math.inf),
                  lambda ys, i: not math.isfinite(ys[i]),
                  lambda ys, i: f"objective is not finite at "
                                f"{np.linspace(0.0, 1.0, len(ys))[i]}"),
}


class TestFirstFault:
    """Every array rule names its first faulty element, and the error's index
    is the one a plain loop finds first."""

    @pytest.mark.parametrize("rule", list(ARRAY_RULES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_the_first_fault_is_named(self, rule, data):
        call, values, bad, message = ARRAY_RULES[rule]
        xs = data.draw(st.lists(st.sampled_from(values), min_size=2, max_size=8))
        faults = [i for i in range(len(xs)) if bad(xs, i)]
        if not faults:
            call(np.array(xs))
            return
        with pytest.raises(ValueError) as info:
            call(np.array(xs))
        assert info.value.index == faults[0]
        assert str(info.value) == message(xs, faults[0])

    def test_posted_price_names_the_first_bad_bid(self):
        with pytest.raises(ValueError, match=r"^bid: must be non-negative and finite, "
                                             r"got -1\.0$") as info:
            posted_price([-1.0, -5.0], ValuationModel(support_max=1.0))
        assert info.value.index == 0

    def test_least_squares_fit_names_the_first_bad_performance(self):
        with pytest.raises(ValueError, match=r"^performance must lie in \[0, 1\], "
                                             r"got 1\.5$") as info:
            least_squares_fit(np.array([1.0, 2.0]), np.array([1.5, -0.5]))
        assert info.value.index == 0


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

    @pytest.mark.parametrize("seed, bad", [("0", "must be an integer, got '0'"),
                                           (0.5, "must be an integer, got 0.5"),
                                           (None, "must be an integer, got None"),
                                           (-1, "must be >= 0, got -1")])
    def test_a_seed_that_is_no_count_is_refused_naming_seed(self, seed, bad):
        # None would draw from the OS's entropy, so no run could be repeated
        with pytest.raises(ValueError, match=f"^seed: {bad}$"):
            sample_valuations(5, ValuationModel(support_max=1.0), seed=seed)

    def test_a_generator_seed_is_drawn_from(self):
        model, rng = ValuationModel(support_max=1.0), np.random.default_rng(4)
        assert np.array_equal(sample_valuations(5, model, rng),
                              sample_valuations(5, model, np.random.default_rng(4)))
        assert not np.array_equal(sample_valuations(5, model, rng),
                                  sample_valuations(5, model, 4))

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


class Drawn:
    """A bit generator that keeps the size of each draw made from it."""

    def __init__(self, bit_generator):
        self.bit_generator, self.sizes = bit_generator, []

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bit_generator.random_raw(size)


def raw_count(M, model, price, seed):
    """The count _count_buyers makes of the one trial of seed, and the Drawn
    bit generator it drew from (None if it took none)."""
    taken, generators = [], market._generators

    def keeping(first_seed, n):
        for bit_generator in generators(first_seed, n):
            taken.append(Drawn(bit_generator))
            yield taken[-1]

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
        assert bg.bit_generator.state == replay.bit_generator.state
        # one draw up to a chunk, and no draw past one
        assert sum(bg.sizes) == M and max(bg.sizes) <= _CHUNK
        assert len(bg.sizes) == -(-M // _CHUNK)

    @pytest.mark.parametrize("chunk", [_CHUNK, 64])
    def test_a_draw_at_the_threshold_counts(self, chunk):
        # at support 1 raw output r gives exactly the valuation (r >> 11) / 2**53;
        # draw 308 of seed 0 has its low 11 bits zero, so priced at its own
        # valuation it equals the raw threshold.  A trial of 309 draws makes
        # one draw, or at a chunk of 64 five, the draw at the threshold in the fifth
        raw = int(np.random.default_rng(0).bit_generator.random_raw(309)[308])
        assert raw % 2048 == 0
        model = ValuationModel(support_max=1.0)
        price = float(sample_valuations(309, model, 0)[308])
        assert _unit_threshold(1.0, price) << 11 == raw
        with split_into(1, chunk):
            count, bg = raw_count(309, model, price, 0)
        assert count == replayed_count(309, model, price, 0)
        assert bg.sizes == ([309] if chunk > 309 else [64] * 4 + [53])

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
            assert _count_buyers(10, [_UNITS // 2] * 2, 0, 0).shape == (2, 0)  # no trial

    def test_chunks_split_a_trial_across_parts(self):
        # 2 * _CHUNK + 1 draws a trial, in chunks of _CHUNK // 3
        M, units = 2 * _CHUNK + 1, [_UNITS // 2, _UNITS // 7]
        serial = assert_split_keeps_the_counts(M, units, 5, 2, 3)
        assert serial.tolist() == replayed_counts(M, units, 5, 2)


@contextlib.contextmanager
def hashed_seeds():
    """The (first seed, count) of each _seed_words call made in the block."""
    calls, seed_words = [], market._seed_words

    def recording(first_seed, n):
        calls.append((first_seed, n))
        return seed_words(first_seed, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "_seed_words", recording)
        yield calls


class TestSeedStream:
    """A part seeds each run of adjacent drawing rows as one stream."""

    def test_adjacent_rows_are_hashed_in_whole_blocks(self):
        # one part (M < _SPLIT_M): 10**4 consecutive seeds, 10 blocks, not 100 rows
        with hashed_seeds() as calls:
            counts = _count_buyers(1, [_UNITS // 2] * 100, 5, 100)
        assert calls == [(5 + b * _BLOCK, min(_BLOCK, 10**4 - b * _BLOCK))
                         for b in range(10)]
        assert counts.shape == (100, 100)

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_a_row_that_draws_nothing_ends_a_run_and_hashes_no_seed(self, parts):
        units = [_UNITS // 2, _UNITS // 3, _UNITS, 0, _UNITS // 5]
        with split_into(parts), hashed_seeds() as calls:
            counts = _count_buyers(7, units, 10, 3)
        hashed = sorted(seed for first, n in calls for seed in range(first, first + n))
        assert hashed == [10 + row * 3 + t for row in (0, 1, 3, 4) for t in range(3)]
        if parts == 1:
            assert calls == [(10, 6), (19, 6)]
        assert counts.tolist() == replayed_counts(7, units, 10, 3)


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
        # the floors as measured: the taxi simulate splits; 2.5e5 draws do not
        assert market._parts(10**4, 100) == 2
        assert market._parts(10**4, 25) == 1
        monkeypatch.setattr(market, "_cpus", lambda: 8)
        assert market._parts(M, seeds) == 2 and market._parts(M, 8 * seeds) == 8
        assert market._parts(M, 100 * seeds) == 8

    @pytest.mark.parametrize("parts, refused", [(2, 1), (4, 2)])
    def test_a_part_whose_thread_is_refused_is_counted_here(self, parts, refused,
                                                           monkeypatch):
        # the refused-th thread does not start; the caller's thread counts
        # its part, and every thread that did start is joined
        units = [_UNITS // 2, _UNITS // 3]
        with split_into(1):
            serial = _count_buyers(30, units, 5, 6)
        before, start, starts = threading.active_count(), threading.Thread.start, []

        def refusing(thread):
            starts.append(thread)
            if len(starts) == refused:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", refusing)
        with split_into(parts):
            counts = _count_buyers(30, units, 5, 6)
        assert len(starts) == parts - 1
        assert threading.active_count() == before
        assert counts.tolist() == serial.tolist()

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
