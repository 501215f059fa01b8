"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with `pytest -s` or in captured
output on failure).  Criteria with a runtime budget assert it.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from datamarket import (
    MarketParams,
    UtilityCurve,
    ValuationModel,
    data_cost,
    data_utility,
    expected_profit,
    grid_argmax,
    hit_rate,
    least_squares_fit,
    optimal_data_size,
    optimal_price,
    posted_price,
    sale_profit,
    sample_valuations,
    simulate,
    sweep,
    taxi_scenario,
    valuation_cdf,
    virtual_valuation,
)

TAXI_CURVE = UtilityCurve(a=0.4944, b=0.0079)
TAXI_PARAMS = MarketParams(M=10000, k=0.5, gamma=1.0, N=100.0)


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({label}): FAIL")
        raise
    print(f"\ncriterion {num} ({label}): PASS [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_optimal_price_agreement():
    with criterion(1, "optimal price matches revenue grid search"):
        start = time.perf_counter()
        model = ValuationModel.from_market(TAXI_CURVE, 50.0, 1.0)
        price = optimal_price(TAXI_CURVE, 50.0, 1.0)
        assert price == pytest.approx(0.26265, abs=1e-5)

        steps = 100_000
        revenue = lambda p: TAXI_PARAMS.M * (1.0 - valuation_cdf(p, model)) * p
        arg, _ = grid_argmax(revenue, 0.0, model.support_max, steps)
        step = model.support_max / (steps - 1)
        assert abs(arg - price) <= step
        assert time.perf_counter() - start < 1.0


def test_criterion_2_optimal_data_size_agreement():
    with criterion(2, "closed-form data size matches profit grid search"):
        start = time.perf_counter()
        report = optimal_data_size(TAXI_PARAMS, TAXI_CURVE)
        assert report.q_star == pytest.approx(39.5, rel=1e-12)
        assert report.q_star == pytest.approx(
            TAXI_PARAMS.M * TAXI_PARAMS.gamma * TAXI_CURVE.b / (4.0 * TAXI_PARAMS.k),
            rel=1e-15,
        )
        assert report.expected_profit_at_q_star == pytest.approx(
            1288.8569382701648, rel=1e-9
        )

        steps = 100_000
        arg, best = grid_argmax(
            lambda q: expected_profit(q, TAXI_PARAMS, TAXI_CURVE), 1e-6, 100.0, steps
        )
        step = (100.0 - 1e-6) / (steps - 1)
        assert abs(report.q_star - arg) <= step
        assert best == pytest.approx(1288.86, abs=0.005)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_purchase_decision_branches():
    with criterion(3, "clamped and rejected purchase branches"):
        # clamp: a large influence coefficient pushes the optimum to N
        eager = MarketParams(M=10000, k=0.5, gamma=20.0, N=100.0)
        report = optimal_data_size(eager, TAXI_CURVE)
        assert not report.rejected
        assert report.q_star == eager.N
        arg, _ = grid_argmax(
            lambda q: expected_profit(q, eager, TAXI_CURVE), 1e-6, eager.N, 100_000
        )
        assert abs(arg - eager.N) <= (eager.N - 1e-6) / (100_000 - 1)

        # rejection: profit is negative everywhere on (0, N]
        stingy = MarketParams(M=10, k=1.0, gamma=1.0, N=100.0)
        poor_curve = UtilityCurve(a=0.001, b=0.01)
        report = optimal_data_size(stingy, poor_curve)
        assert report.rejected
        assert report.q_star == 0.0
        grid = np.linspace(1e-6, stingy.N, 200_001)
        profits = stingy.M * stingy.gamma * (
            poor_curve.a + poor_curve.b * np.log(grid)
        ) / 4.0 - stingy.k * grid
        assert profits.max() < 0.0


def test_criterion_4_monte_carlo_profit_validation():
    with criterion(4, "simulated profit within 3 standard errors of analytic"):
        start = time.perf_counter()
        config = taxi_scenario()
        assert (config.M, config.trials) == (10000, 100)
        report = simulate(config)
        assert report.analytic_profit == pytest.approx(1288.26, abs=0.005)
        assert (
            abs(report.empirical_mean - report.analytic_profit)
            <= 3.0 * report.std_error
        )
        assert report.within_three_se
        assert time.perf_counter() - start < 10.0


def _utility(bids, i, v, model):
    """Customer i's utility, valuing the service at v: v - price if it wins, else 0."""
    winners, price = posted_price(bids, model)
    return v - price if winners[i] else 0.0


def test_criterion_5_incentive_compatibility_and_rationality():
    with criterion(5, "truthful bidding optimal and never loss-making"):
        rng = np.random.default_rng(2024)
        violations = 0
        instances = 1000
        deviation_points = 50
        for _ in range(instances):
            curve = UtilityCurve(
                a=float(rng.uniform(0.05, 0.9)), b=float(rng.uniform(0.001, 0.1))
            )
            q = float(rng.uniform(1.0, 100.0))
            gamma = float(rng.uniform(0.2, 5.0))
            rng.uniform(0.1, 2.0)  # the unit data cost k: no customer's utility uses it
            M = int(rng.integers(1, 7))
            model = ValuationModel.from_market(curve, q, gamma)
            values = sample_valuations(M, model, seed=int(rng.integers(1 << 31)))
            grid = np.linspace(0.0, model.support_max, deviation_points)
            for i in range(M):
                v = float(values[i])
                u_truth = _utility(values, i, v, model)
                if u_truth < 0.0:
                    violations += 1
                for dev in grid:
                    dev = float(dev)
                    if dev == v:
                        continue
                    deviated = values.copy()
                    deviated[i] = dev
                    if _utility(deviated, i, v, model) > u_truth:
                        violations += 1
        assert violations == 0


def test_criterion_6_virtual_surplus_equivalence():
    with criterion(6, "realized profit equals virtual surplus on average"):
        profiles = 10_000
        M, q, gamma, k = 40, 50.0, 1.0, 0.5
        model = ValuationModel.from_market(TAXI_CURVE, q, gamma)
        cost = data_cost(q, k)
        diffs = np.empty(profiles)
        profits = np.empty(profiles)
        surpluses = np.empty(profiles)
        for p in range(profiles):
            values = sample_valuations(M, model, seed=p)
            winners, price = posted_price(values, model)
            virtual_surplus = float(virtual_valuation(values[winners], model).sum()) - cost
            profits[p] = sale_profit(np.count_nonzero(winners), price, cost)
            surpluses[p] = virtual_surplus
            diffs[p] = profits[p] - virtual_surplus
        se = diffs.std(ddof=1) / np.sqrt(profiles)
        assert abs(profits.mean() - surpluses.mean()) <= 3.0 * se


@pytest.mark.filterwarnings("ignore:fitted slope")
def test_criterion_7_fit_recovery_and_brute_force_agreement():
    with criterion(7, "curve fit recovers exact models and matches grid search"):
        truth = UtilityCurve(a=0.5, b=0.01)
        sizes = np.array([1.0, 10.0, 100.0, 1000.0])
        report = least_squares_fit(sizes, data_utility(sizes, truth))
        assert abs(report.curve.a - truth.a) < 1e-9
        assert abs(report.curve.b - truth.b) < 1e-9

        rng = np.random.default_rng(99)
        for _ in range(3):
            n = int(rng.integers(3, 6))
            qs = rng.uniform(1.0, 500.0, n)
            alphas = rng.uniform(0.3, 0.7, n)
            fit = least_squares_fit(qs, alphas)
            a_grid = np.linspace(fit.curve.a - 0.05, fit.curve.a + 0.05, 501)
            b_grid = np.linspace(fit.curve.b - 0.02, fit.curve.b + 0.02, 501)
            x = np.log(qs)
            sse = np.square(
                alphas[None, None, :]
                - a_grid[:, None, None]
                - b_grid[None, :, None] * x[None, None, :]
            ).sum(axis=2)
            i, j = np.unravel_index(np.argmin(sse), sse.shape)
            assert abs(fit.curve.a - a_grid[i]) <= a_grid[1] - a_grid[0]
            assert abs(fit.curve.b - b_grid[j]) <= b_grid[1] - b_grid[0]


def test_criterion_8_satisfaction_rate_brute_force_oracle():
    with criterion(8, "satisfaction rate equals direct counting"):
        rng = np.random.default_rng(56)
        for _ in range(5):
            n = int(rng.integers(1, 1001))
            y_true = rng.uniform(0.0, 2000.0, n)
            y_pred = y_true + rng.uniform(-400.0, 400.0, n)
            for tau in (60.0, 180.0, 300.0):
                count = 0
                for t, p in zip(y_true, y_pred):
                    if abs(float(t) - float(p)) < tau:
                        count += 1
                assert hit_rate(y_true, y_pred, tau) == count / n


def _single_sign_change(values):
    diffs = np.diff(values)
    signs = np.sign(diffs[diffs != 0.0])
    return int((np.diff(signs) != 0).sum()) == 1 and signs[0] > 0


def test_criterion_9_qualitative_sweep_shapes():
    with criterion(9, "sweeps reproduce the qualitative market shapes"):
        config = replace(taxi_scenario(), M=10000, trials=2)
        model = config.model()

        price_rows = sweep(config, "price", 0.0, model.support_max, 151)
        assert _single_sign_change([row.expected_profit for row in price_rows])

        q_rows = sweep(config, "q", 1.0, 100.0, 151)
        assert _single_sign_change([row.expected_profit for row in q_rows])

        k_rows = sweep(config, "k", 0.05, 2.0, 40)
        k_profit = np.array([row.expected_profit for row in k_rows])
        k_sizes = np.array([row.optimal_q for row in k_rows])
        assert np.all(np.diff(k_profit) <= 1e-9)
        assert np.all(np.diff(k_sizes) <= 1e-9)

        g_rows = sweep(config, "gamma", 0.5, 5.0, 46)
        gammas = np.array([row.value for row in g_rows])
        g_profit = np.array([row.expected_profit for row in g_rows])
        g_sizes = np.array([row.optimal_q for row in g_rows])
        coeffs = np.polyfit(gammas, g_profit, 1)
        resid = g_profit - np.polyval(coeffs, gammas)
        r2 = 1.0 - resid.var() / g_profit.var()
        assert r2 > 0.999
        unclamped = g_sizes < config.N
        assert unclamped.any() and (~unclamped).any()
        ratio = g_sizes[unclamped] / gammas[unclamped]
        assert np.allclose(ratio, ratio[0], rtol=1e-12)  # linear through zero
        assert np.all(g_sizes[~unclamped] == config.N)
