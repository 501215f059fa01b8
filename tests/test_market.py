
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from datamarket import (
    AuctionOutcome,
    CustomerBid,
    MarketParams,
    UtilityCurve,
    ValuationModel,
    data_cost,
    data_utility,
    expected_profit,
    sample_valuations,
    valuation_cdf,
)

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

    def test_outcome_arrays_must_align_with_ids(self):
        with pytest.raises(ValueError, match="must align"):
            AuctionOutcome(customer_ids=("a", "b"), allocations=np.zeros(2, np.int8),
                           payments=np.zeros(3), gross_profit=0.0)

    def test_bid_rejects_negative(self):
        with pytest.raises(ValueError):
            CustomerBid("c1", -0.1)

    def test_bid_rejects_text(self):
        with pytest.raises(TypeError):
            CustomerBid("c1", "0.3")


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

    def test_zero_customers_rejected(self):
        with pytest.raises(ValueError):
            sample_valuations(0, ValuationModel(support_max=1.0), seed=0)

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
