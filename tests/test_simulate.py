from dataclasses import replace

import numpy as np
import pytest

from datamarket import (
    ScenarioConfig,
    expected_profit,
    optimal_price,
    simulate,
    sweep,
    taxi_scenario,
)


def small_config(**overrides):
    fields = dict(
        M=500, k=0.5, gamma=1.0, N=100.0, a=0.4944, b=0.0079, q=50.0, seed=3, trials=40
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestSimulate:
    def test_deterministic_for_fixed_config(self):
        config = small_config()
        assert simulate(config) == simulate(config)

    def test_seed_changes_the_draws(self):
        a = simulate(small_config(seed=1))
        b = simulate(small_config(seed=2))
        assert a.empirical_mean != b.empirical_mean

    def test_requires_fixed_q(self):
        with pytest.raises(ValueError, match="field q"):
            simulate(small_config(q=None))

    def test_single_customer_outcome_space(self):
        config = small_config(M=1, trials=60)
        report = simulate(config)
        cost = config.k * config.q
        price = optimal_price(config.curve, config.q, config.gamma)
        # every trial lands on one of exactly two outcomes
        outcomes = {-cost, price - cost}
        assert set(report.trial_profits) == outcomes
        assert len(report.trial_profits) == 60

    def test_agrees_with_analytic_expectation(self):
        config = small_config(M=2000, trials=60)
        report = simulate(config)
        assert report.within_three_se
        assert report.analytic_profit == expected_profit(
            config.q, config.market, config.curve
        )

    def test_standard_error_scales_with_market_size(self):
        small = simulate(small_config(M=100, trials=50))
        large = simulate(small_config(M=10_000, trials=50))
        ratio = small.std_error / large.std_error
        assert 0.05 < ratio < 0.2  # ~sqrt(100 / 10000) = 0.1

    def test_report_carries_run_parameters(self):
        config = small_config()
        report = simulate(config)
        assert (report.M, report.q, report.trials, report.seed) == (500, 50.0, 40, 3)
        assert report.threshold_price == optimal_price(
            config.curve, config.q, config.gamma
        )

    def test_std_overflow_rejected(self):
        # profits near 1e303 are finite, but their squares in the std are not
        config = replace(taxi_scenario(), gamma=1e300, trials=5)
        with pytest.raises(ValueError, match="Monte-Carlo profit overflows"):
            simulate(config)
        with pytest.raises(ValueError, match="Monte-Carlo profit overflows"):
            sweep(config, "gamma", 1.0, 1e303, 3)


class TestSweepValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(small_config(), "price_and_q", 0.0, 1.0, 10)

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            sweep(small_config(), "price", 1.0, 1.0, 10)
        with pytest.raises(ValueError, match="grid points"):
            sweep(small_config(), "price", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="bound hi"):
            sweep(small_config(), "price", 0.0, float("inf"), 10)

    def test_price_sweep_requires_q(self):
        with pytest.raises(ValueError, match="field q"):
            sweep(small_config(q=None), "price", 0.0, 0.5, 5)

    def test_price_sweep_rejects_negative_lo(self):
        with pytest.raises(ValueError, match="lo >= 0"):
            sweep(small_config(), "price", -0.1, 0.5, 5)

    def test_q_sweep_must_stay_in_range(self):
        with pytest.raises(ValueError, match="within"):
            sweep(small_config(), "q", 0.0, 100.0, 5)
        with pytest.raises(ValueError, match="within"):
            sweep(small_config(), "q", 1.0, 101.0, 5)

    def test_positive_lo_for_market_constants(self):
        with pytest.raises(ValueError, match="lo > 0"):
            sweep(small_config(), "k", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="lo > 0"):
            sweep(small_config(), "gamma", 0.0, 1.0, 5)


class TestSweepResults:
    def test_rows_follow_grid_order(self):
        rows = sweep(small_config(trials=2), "q", 1.0, 100.0, 12)
        assert len(rows) == 12
        values = [row.value for row in rows]
        assert values == sorted(values)
        assert values[0] == 1.0 and values[-1] == 100.0

    def test_deterministic(self):
        config = small_config(trials=3)
        assert sweep(config, "q", 1.0, 100.0, 7) == sweep(config, "q", 1.0, 100.0, 7)

    def test_price_sweep_peaks_at_optimal_price(self):
        config = small_config(trials=2)
        model = config.model()
        steps = 201
        rows = sweep(config, "price", 0.0, model.support_max, steps)
        profits = np.array([row.expected_profit for row in rows])
        best = rows[int(np.argmax(profits))].value
        p_star = optimal_price(config.curve, config.q, config.gamma)
        assert abs(best - p_star) <= model.support_max / (steps - 1)
        assert rows[0].optimal_price == p_star

    def test_price_sweep_is_unimodal(self):
        rows = sweep(small_config(trials=2), "price", 0.0, 0.525, 101)
        diffs = np.diff([row.expected_profit for row in rows])
        signs = np.sign(diffs[diffs != 0])
        changes = int((np.diff(signs) != 0).sum())
        assert changes == 1

    def test_q_sweep_matches_profit_curve_and_is_concave(self):
        config = small_config(trials=2)
        rows = sweep(config, "q", 1.0, 100.0, 80)
        for row in rows[:10]:
            assert row.expected_profit == expected_profit(
                row.value, config.market, config.curve
            )
        diffs = np.diff([row.expected_profit for row in rows])
        signs = np.sign(diffs[diffs != 0])
        assert int((np.diff(signs) != 0).sum()) == 1

    def test_k_sweep_profit_non_increasing(self):
        rows = sweep(small_config(M=10_000, trials=2), "k", 0.05, 2.0, 30)
        profits = [row.expected_profit for row in rows]
        assert np.all(np.diff(profits) <= 1e-9)
        sizes = [row.optimal_q for row in rows]
        assert np.all(np.diff(sizes) <= 1e-9)

    def test_k_sweep_hits_rejection(self):
        # a market that stops being profitable as data gets expensive
        config = small_config(M=10, a=0.001, b=0.01, q=None, trials=2)
        rows = sweep(config, "k", 0.001, 1.0, 25)
        assert rows[0].expected_profit > 0
        tail = rows[-1]
        assert tail.expected_profit == 0.0
        assert tail.optimal_q == 0.0
        assert tail.optimal_price == 0.0
        assert (tail.empirical_mean, tail.empirical_std) == (0.0, 0.0)

    def test_gamma_sweep_linear_profit_and_clamped_size(self):
        config = small_config(M=10_000, trials=2)
        rows = sweep(config, "gamma", 0.5, 5.0, 46)
        gammas = np.array([row.value for row in rows])
        profits = np.array([row.expected_profit for row in rows])
        coeffs = np.polyfit(gammas, profits, 1)
        resid = profits - np.polyval(coeffs, gammas)
        r2 = 1.0 - resid.var() / profits.var()
        assert r2 > 0.999
        sizes = np.array([row.optimal_q for row in rows])
        assert np.all(np.diff(sizes) >= -1e-12)
        assert sizes[-1] == config.N

    def test_empirical_tracks_analytic_on_q_sweep(self):
        config = small_config(M=4000, trials=30)
        rows = sweep(config, "q", 10.0, 90.0, 5)
        for row in rows:
            se = row.empirical_std / np.sqrt(config.trials)
            assert abs(row.empirical_mean - row.expected_profit) <= 4.0 * se

    def test_taxi_defaults_load(self):
        config = replace(taxi_scenario(), trials=2, M=200)
        rows = sweep(config, "q", 1.0, 100.0, 5)
        assert len(rows) == 5
