import numpy as np
import pytest
from hypothesis import given, strategies as st

from datamarket import (
    UtilityCurve,
    ValuationModel,
    data_cost,
    grid_argmax,
    inverse_virtual,
    optimal_price,
    posted_price,
    sale_profit,
    sample_valuations,
    valuation_cdf,
    virtual_valuation,
)

TAXI_CURVE = UtilityCurve(a=0.4944, b=0.0079)
TAXI_MODEL = ValuationModel.from_market(TAXI_CURVE, 50.0, 1.0)


class TestVirtualValuation:
    model = ValuationModel(support_max=0.9)

    def test_top_of_support(self):
        assert virtual_valuation(0.9, self.model) == pytest.approx(0.9)

    def test_root_at_half_support(self):
        assert virtual_valuation(0.45, self.model) == pytest.approx(0.0, abs=1e-15)

    def test_bottom_of_support(self):
        assert virtual_valuation(0.0, self.model) == -0.9

    @pytest.mark.parametrize("v", [-0.01, 0.91])
    def test_outside_support_rejected(self, v):
        with pytest.raises(ValueError):
            virtual_valuation(v, self.model)

    def test_matches_hazard_rate_definition(self):
        # independent route: v - (1 - F(v)) / f(v), with the uniform density 1/s
        density = 1.0 / self.model.support_max
        rng = np.random.default_rng(5)
        for v in rng.uniform(0.0, 0.9, size=200):
            v = float(v)
            expected = v - (1.0 - valuation_cdf(v, self.model)) / density
            assert virtual_valuation(v, self.model) == pytest.approx(
                expected, abs=1e-12
            )

    def test_monotone_over_support(self):
        vs = np.linspace(0.0, 0.9, 101)
        phis = [virtual_valuation(float(v), self.model) for v in vs]
        assert np.all(np.diff(phis) >= 0)


class TestInverseVirtual:
    model = ValuationModel(support_max=0.9)

    def test_zero_maps_to_half_support(self):
        assert inverse_virtual(0.0, self.model) == 0.45

    def test_top_round_trip(self):
        assert inverse_virtual(0.9, self.model) == 0.9

    def test_bottom_round_trip(self):
        assert inverse_virtual(-0.9, self.model) == 0.0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        for y in rng.uniform(-0.9, 0.9, size=200):
            y = float(y)
            assert virtual_valuation(inverse_virtual(y, self.model), self.model) == (
                pytest.approx(y, abs=1e-12)
            )

    @pytest.mark.parametrize("y", [-0.91, 0.91])
    def test_outside_image_rejected(self, y):
        with pytest.raises(ValueError):
            inverse_virtual(y, self.model)


class TestOptimalPrice:
    def test_taxi_value(self):
        assert optimal_price(TAXI_CURVE, 50.0, 1.0) == pytest.approx(
            0.262652490871441, rel=1e-12
        )

    def test_grid_search_confirms_maximizer(self):
        M, steps = 10_000, 20_001
        revenue = lambda p: M * (1.0 - valuation_cdf(p, TAXI_MODEL)) * p
        arg, _ = grid_argmax(revenue, 0.0, TAXI_MODEL.support_max, steps)
        step = TAXI_MODEL.support_max / (steps - 1)
        assert abs(arg - optimal_price(TAXI_CURVE, 50.0, 1.0)) <= step

    def test_unit_size_with_double_influence_returns_intercept(self):
        curve = UtilityCurve(a=0.37, b=0.02)
        assert optimal_price(curve, 1.0, 2.0) == pytest.approx(curve.a, rel=1e-15)

    def test_scales_linearly_in_gamma(self):
        base = optimal_price(TAXI_CURVE, 50.0, 1.0)
        assert optimal_price(TAXI_CURVE, 50.0, 3.0) == pytest.approx(
            3.0 * base, rel=1e-12
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_price(TAXI_CURVE, 0.0, 1.0)
        with pytest.raises(ValueError):
            optimal_price(TAXI_CURVE, 50.0, 0.0)


def utility(values, i, true_value, model):
    """Customer i's utility in the sale to values: v - price if it wins, else 0."""
    winners, price = posted_price(values, model)
    return true_value - price if winners[i] else 0.0


class TestPostedPrice:
    def test_threshold_rule_on_taxi_market(self):
        # hand-applied: p* ~ 0.26265; 0.6 lies above the support but wins
        winners, price = posted_price(np.array([0.6, 0.3, 0.1]), TAXI_MODEL)
        assert price == pytest.approx(0.262652490871441, rel=1e-12)
        assert winners.tolist() == [True, True, False]
        profit = sale_profit(np.count_nonzero(winners), price, data_cost(50.0, 0.5))
        assert profit == pytest.approx(-24.474695018257118, rel=1e-12)

    def test_all_zero_bids_lose(self):
        winners, _ = posted_price(np.zeros(3), TAXI_MODEL)
        assert not winners.any()

    def test_maximal_bids_all_win(self):
        winners, _ = posted_price(np.full(4, TAXI_MODEL.support_max), TAXI_MODEL)
        assert winners.all()

    def test_tie_at_threshold_wins(self):
        winners, _ = posted_price(np.array([0.5 * TAXI_MODEL.support_max]), TAXI_MODEL)
        assert winners.tolist() == [True]

    def test_gross_profit_is_payments_minus_cost(self):
        model = ValuationModel(support_max=1.0)
        values = sample_valuations(200, model, seed=21)
        winners, price = posted_price(values, model)
        payments = np.where(winners, price, 0.0)
        cost = data_cost(10.0, 0.25)
        assert sale_profit(np.count_nonzero(winners), price, cost) == (
            float(payments.sum()) - cost
        )

    def test_price_is_the_optimal_price_exactly(self):
        _, price = posted_price(np.array([0.4, 0.5, 0.02]), TAXI_MODEL)
        assert price == optimal_price(TAXI_CURVE, 50.0, 1.0)

    def test_bid_partition_around_threshold(self):
        values = sample_valuations(500, TAXI_MODEL, seed=2)
        winners, price = posted_price(values, TAXI_MODEL)
        assert np.all(values[winners] >= price)
        assert np.all(values[~winners] < price)

    def test_no_bids_no_winners(self):
        winners, _ = posted_price(np.array([]), TAXI_MODEL)
        assert winners.shape == (0,)

    # bid fractions of the support: ties at s/2, the support's top, bids
    # above the support and zero bids, mixed with arbitrary fractions
    fractions = st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.5]),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        min_size=1,
        max_size=60,
    )

    @given(support=st.floats(min_value=0.01, max_value=50.0), fracs=fractions)
    def test_winners_are_the_bids_whose_virtual_value_clears_zero(self, support, fracs):
        model = ValuationModel(support_max=support)
        values = np.array([f * support for f in fracs])
        winners, price = posted_price(values, model)
        # reference: the virtual value of each support-clamped bid clears zero
        virtual = virtual_valuation(np.minimum(values, support), model)
        assert np.array_equal(winners, virtual >= 0.0)
        assert price == 0.5 * support


class TestPostedPriceRefusesBadBids:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.5,
                                     -1e-300])
    def test_bad_bid_is_named(self, bad):
        with pytest.raises(ValueError,
                           match=f"^bid: must be non-negative and finite, got {bad}$"):
            posted_price(np.array([0.3, bad, 0.1]), TAXI_MODEL)

    @given(n=st.integers(1, 40), data=st.data())
    def test_one_bad_bid_anywhere_is_refused(self, n, data):
        values = sample_valuations(n, TAXI_MODEL, seed=n)
        values[data.draw(st.integers(0, n - 1))] = data.draw(st.one_of(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            st.floats(max_value=-1e-300, allow_infinity=False)))
        with pytest.raises(ValueError, match="^bid: must be non-negative and finite"):
            posted_price(values, TAXI_MODEL)


class TestCustomerUtility:
    values = np.array([0.6, 0.3, 0.1])

    def test_winner_keeps_surplus(self):
        assert utility(self.values, 0, 0.6, TAXI_MODEL) == pytest.approx(
            0.337347509128559, rel=1e-12
        )

    def test_loser_gets_zero(self):
        assert utility(self.values, 2, 0.1, TAXI_MODEL) == 0.0

    def test_marginal_winner_breaks_even(self):
        price = optimal_price(TAXI_CURVE, 50.0, 1.0)
        assert utility(np.array([price]), 0, price, TAXI_MODEL) == 0.0


class TestTruthfulness:
    @given(
        support=st.floats(min_value=0.05, max_value=5.0),
        value_frac=st.floats(min_value=0.0, max_value=1.0),
        deviation_frac=st.floats(min_value=0.0, max_value=1.2),
        rival_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_truthful_bid_is_never_worse(
        self, support, value_frac, deviation_frac, rival_frac
    ):
        model = ValuationModel(support_max=support)
        v = value_frac * support
        rival = rival_frac * support
        u_truth = utility(np.array([v, rival]), 0, v, model)
        u_dev = utility(np.array([deviation_frac * support, rival]), 0, v, model)
        assert u_truth >= u_dev
        assert u_truth >= 0.0
