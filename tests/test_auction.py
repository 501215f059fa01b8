import numpy as np
import pytest
from hypothesis import given, strategies as st

from datamarket import (
    CustomerBid,
    UtilityCurve,
    ValuationModel,
    customer_utility,
    data_cost,
    grid_argmax,
    inverse_virtual,
    optimal_price,
    run_auction,
    sample_valuations,
    valuation_cdf,
    virtual_valuation,
)
from datamarket.auction import posted_price

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


def _bids(*values):
    return [CustomerBid(f"c{i}", v) for i, v in enumerate(values)]


class TestRunAuction:
    def test_threshold_rule_on_taxi_market(self):
        # hand-applied: p* ~ 0.26265; 0.6 clamps to the support but wins
        result = run_auction(_bids(0.6, 0.3, 0.1), TAXI_MODEL, q=50.0, k=0.5)
        outcome = result.outcome
        assert result.threshold_price == pytest.approx(0.262652490871441, rel=1e-12)
        assert list(outcome.allocations) == [1, 1, 0]
        assert outcome.payments[0] == result.threshold_price
        assert outcome.payments[1] == result.threshold_price
        assert outcome.payments[2] == 0.0
        assert outcome.gross_profit == pytest.approx(-24.474695018257118, rel=1e-12)

    def test_clamped_bid_keeps_support_virtual_value(self):
        result = run_auction(_bids(0.6, 0.3, 0.1), TAXI_MODEL, q=50.0, k=0.5)
        assert result.virtual_bids[0] == pytest.approx(
            TAXI_MODEL.support_max, rel=1e-15
        )

    def test_all_zero_bids_lose(self):
        result = run_auction(_bids(0.0, 0.0, 0.0), TAXI_MODEL, q=50.0, k=0.5)
        assert not result.outcome.allocations.any()
        assert result.outcome.gross_profit == -data_cost(50.0, 0.5)

    def test_maximal_bids_all_win(self):
        s = TAXI_MODEL.support_max
        result = run_auction(_bids(s, s, s, s), TAXI_MODEL, q=50.0, k=0.5)
        assert result.outcome.allocations.all()
        assert np.all(result.outcome.payments == result.threshold_price)

    def test_tie_at_threshold_wins(self):
        s = TAXI_MODEL.support_max
        result = run_auction(_bids(0.5 * s), TAXI_MODEL, q=50.0, k=0.5)
        assert result.outcome.allocations[0] == 1

    def test_gross_profit_is_payments_minus_cost(self):
        model = ValuationModel(support_max=1.0)
        values = sample_valuations(200, model, seed=21)
        result = run_auction(
            [CustomerBid(f"c{i}", float(v)) for i, v in enumerate(values)],
            model,
            q=10.0,
            k=0.25,
        )
        outcome = result.outcome
        assert outcome.gross_profit == float(outcome.payments.sum()) - data_cost(
            10.0, 0.25
        )
        assert np.all(outcome.payments[outcome.allocations == 0] == 0.0)

    def test_winner_payments_equal_posted_price_exactly(self):
        result = run_auction(_bids(0.4, 0.5, 0.02), TAXI_MODEL, q=50.0, k=0.5)
        price = optimal_price(TAXI_CURVE, 50.0, 1.0)
        assert result.threshold_price == price
        winners = result.outcome.allocations == 1
        assert np.all(result.outcome.payments[winners] == price)

    def test_bid_partition_around_threshold(self):
        values = sample_valuations(500, TAXI_MODEL, seed=2)
        bids = [CustomerBid(f"c{i}", float(v)) for i, v in enumerate(values)]
        result = run_auction(bids, TAXI_MODEL, q=50.0, k=0.5)
        for bid, won in zip(bids, result.outcome.allocations):
            if won:
                assert bid.bid >= result.threshold_price
            else:
                assert bid.bid < result.threshold_price

    def test_repeated_customer_id_rejected(self):
        with pytest.raises(ValueError, match="customer ids must be unique"):
            run_auction([CustomerBid("c1", 0.3), CustomerBid("c1", 0.1)], TAXI_MODEL,
                        q=50.0, k=0.5)

    def test_empty_bids_rejected(self):
        with pytest.raises(ValueError):
            run_auction([], TAXI_MODEL, q=50.0, k=0.5)


class TestKernelAgreesWithAdapter:
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

    @given(
        support=st.floats(min_value=0.01, max_value=50.0),
        fracs=fractions,
        all_zero=st.booleans(),
    )
    def test_run_auction_matches_posted_price(self, support, fracs, all_zero):
        model = ValuationModel(support_max=support)
        values = np.array([0.0 if all_zero else f * support for f in fracs])
        result = run_auction(_bids(*values.tolist()), model, q=10.0, k=0.3)
        winners, price = posted_price(values, model)

        # reference: the virtual value of each support-clamped bid clears zero
        virtual = 2.0 * np.minimum(values, support) - support
        assert np.array_equal(winners, virtual >= 0.0)
        assert price == 0.5 * support == result.threshold_price
        assert np.array_equal(result.virtual_bids, virtual)
        outcome = result.outcome
        assert np.array_equal(outcome.allocations, winners.astype(np.int8))
        assert np.array_equal(outcome.payments, np.where(winners, price, 0.0))
        assert outcome.gross_profit == winners.sum() * price - data_cost(10.0, 0.3)


class TestCustomerUtility:
    result = run_auction(_bids(0.6, 0.3, 0.1), TAXI_MODEL, q=50.0, k=0.5)
    bids = _bids(0.6, 0.3, 0.1)

    def test_winner_keeps_surplus(self):
        assert customer_utility(self.bids[0], 0.6, self.result) == pytest.approx(
            0.337347509128559, rel=1e-12
        )

    def test_loser_gets_zero(self):
        assert customer_utility(self.bids[2], 0.1, self.result) == 0.0

    def test_marginal_winner_breaks_even(self):
        price = self.result.threshold_price
        result = run_auction(_bids(price), TAXI_MODEL, q=50.0, k=0.5)
        assert customer_utility(CustomerBid("c0", price), price, result) == 0.0

    def test_unknown_customer_rejected(self):
        with pytest.raises(KeyError):
            customer_utility(CustomerBid("ghost", 0.5), 0.5, self.result)


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
        truthful = run_auction(
            [CustomerBid("me", v), CustomerBid("rival", rival)], model, q=1.0, k=0.01
        )
        deviated = run_auction(
            [CustomerBid("me", deviation_frac * support), CustomerBid("rival", rival)],
            model,
            q=1.0,
            k=0.01,
        )
        me = CustomerBid("me", v)
        u_truth = customer_utility(me, v, truthful)
        u_dev = customer_utility(me, v, deviated)
        assert u_truth >= u_dev
        assert u_truth >= 0.0
