import math
import re
import reprlib

import numpy as np
import pytest

from datamarket import (
    MarketParams,
    UtilityCurve,
    ValuationModel,
    concavity_check,
    expected_profit,
    grid_argmax,
    optimal_data_size,
    optimal_price,
    valuation_cdf,
)
from datamarket.optimize import grid

TAXI_CURVE = UtilityCurve(a=0.4944, b=0.0079)
TAXI_PARAMS = MarketParams(M=10000, k=0.5, gamma=1.0, N=100.0)

# dense-grid argmax oracle tuned for ~1e-3 resolution over (0, N]
GRID_STEPS = 100_000
GRID_EPS = 1e-6


def profit_curve(params, curve):
    """Grid-vectorized expected-profit objective for the grid oracle."""

    def f(qs):
        qs = np.asarray(qs, dtype=float)
        return params.M * params.gamma * (curve.a + curve.b * np.log(qs)) / 4.0 - (
            params.k * qs
        )

    return f


class TestExpectedProfit:
    def test_no_purchase_means_no_profit(self):
        assert expected_profit(0.0, TAXI_PARAMS, TAXI_CURVE) == 0.0
        # r(q) is evaluated at q = 1 there and masked out: b*ln(1) = 0 adds
        # nothing, so a + b*ln(q) cannot overflow (pytest turns a warning
        # into an error)
        huge = UtilityCurve(a=1.5e308, b=1e308)
        assert expected_profit(0.0, MarketParams(M=1, k=1.0, gamma=1.0, N=10.0), huge) == 0.0

    def test_taxi_values(self):
        assert expected_profit(50.0, TAXI_PARAMS, TAXI_CURVE) == pytest.approx(
            1288.2624543572058, rel=1e-12
        )
        assert expected_profit(39.5, TAXI_PARAMS, TAXI_CURVE) == pytest.approx(
            1288.8569382701648, rel=1e-12
        )

    def test_matches_revenue_formula(self):
        # independent route: M * (1 - F(p*)) * p* - k*q through the cdf
        for q in (5.0, 20.0, 50.0, 99.0):
            model = ValuationModel.from_market(TAXI_CURVE, q, TAXI_PARAMS.gamma)
            price = optimal_price(TAXI_CURVE, q, TAXI_PARAMS.gamma)
            revenue = TAXI_PARAMS.M * (1.0 - valuation_cdf(price, model)) * price
            assert expected_profit(q, TAXI_PARAMS, TAXI_CURVE) == pytest.approx(
                revenue - TAXI_PARAMS.k * q, rel=1e-12
            )

    @pytest.mark.parametrize("q", [-0.1, 100.1])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            expected_profit(q, TAXI_PARAMS, TAXI_CURVE)

    def test_nonpositive_slope_refused(self):
        with pytest.raises(ValueError):
            expected_profit(10.0, TAXI_PARAMS, UtilityCurve(a=0.5, b=-0.01))

    def test_all_data_is_bought_and_not_a_float_more(self):
        n = TAXI_PARAMS.N
        assert expected_profit(n, TAXI_PARAMS, TAXI_CURVE) == pytest.approx(
            TAXI_PARAMS.M * (0.4944 + 0.0079 * math.log(n)) / 4.0 - 0.5 * n, rel=1e-12)
        assert expected_profit(np.array([0.0, n]), TAXI_PARAMS, TAXI_CURVE)[1] > 0.0
        for q in (math.nextafter(n, math.inf), np.array([n, math.nextafter(n, math.inf)])):
            with pytest.raises(ValueError, match=r"must lie in \[0, 100.0\]"):
                expected_profit(q, TAXI_PARAMS, TAXI_CURVE)

    def test_overflow_rejected(self):
        # M * gamma = 1e309 is inf in floating point; so is the profit
        huge = MarketParams(M=10000, k=0.5, gamma=1e305, N=100.0)
        with pytest.raises(ValueError, match="expected profit overflows at data size 50.0"):
            expected_profit(50.0, huge, TAXI_CURVE)
        with pytest.raises(ValueError, match="overflows at data size 20.0"):
            expected_profit(np.array([0.0, 20.0, 50.0]), huge, TAXI_CURVE)
        with pytest.raises(ValueError, match="overflows"):
            optimal_data_size(huge, TAXI_CURVE)


class TestOptimalDataSize:
    def test_taxi_interior_optimum(self):
        report = optimal_data_size(TAXI_PARAMS, TAXI_CURVE)
        assert not report.rejected
        assert report.q_star == pytest.approx(39.5, rel=1e-12)
        assert report.expected_profit_at_q_star == pytest.approx(
            1288.8569382701648, rel=1e-9
        )
        assert report.price_at_q_star == optimal_price(
            TAXI_CURVE, report.q_star, TAXI_PARAMS.gamma
        )

    @pytest.mark.parametrize("b", [0.0, -0.01, -1e300])
    def test_nonpositive_slope_is_named(self, b):
        message = f"utility-curve slope b: must be positive and finite, got {b}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimal_data_size(TAXI_PARAMS, UtilityCurve(a=0.5, b=b))

    def test_taxi_optimum_confirmed_by_grid_search(self):
        report = optimal_data_size(TAXI_PARAMS, TAXI_CURVE)
        arg, val = grid_argmax(
            profit_curve(TAXI_PARAMS, TAXI_CURVE), GRID_EPS, TAXI_PARAMS.N, GRID_STEPS
        )
        step = (TAXI_PARAMS.N - GRID_EPS) / (GRID_STEPS - 1)
        assert abs(report.q_star - arg) <= step
        assert report.expected_profit_at_q_star >= val - 1e-9

    def test_clamps_at_available_size(self):
        params = MarketParams(M=10000, k=0.5, gamma=20.0, N=100.0)
        report = optimal_data_size(params, TAXI_CURVE)
        assert not report.rejected
        assert report.q_star == params.N

    def test_rejects_unprofitable_market(self):
        params = MarketParams(M=10, k=1.0, gamma=1.0, N=100.0)
        curve = UtilityCurve(a=0.001, b=0.01)
        report = optimal_data_size(params, curve)
        assert report.rejected
        assert report.q_star == 0.0
        assert report.expected_profit_at_q_star == 0.0
        assert report.price_at_q_star == 0.0
        # interior candidate sits at 0.025 with a small loss
        assert expected_profit(0.025, params, curve) == pytest.approx(
            -0.114721986352848, rel=1e-9
        )

    def test_exactly_zero_profit_is_rejected(self):
        # q+ = M*gamma*b/(4k) = 1 = N, and M*gamma*r(1)/4 = 1 = k*N: profit is
        # exactly 0; a unit cost one float lower makes it positive
        curve = UtilityCurve(a=1.0, b=1.0)
        for k, profitable in ((math.nextafter(1.0, 2.0), False), (1.0, False),
                              (math.nextafter(1.0, 0.0), True)):
            params = MarketParams(M=4, k=k, gamma=1.0, N=1.0)
            profit = expected_profit(1.0, params, curve)
            assert (profit > 0.0) == profitable and (profit == 0.0) == (k == 1.0)
            report = optimal_data_size(params, curve)
            assert report.rejected != profitable
            assert report.q_star == (1.0 if profitable else 0.0)

    def test_rejection_confirmed_by_grid_search(self):
        params = MarketParams(M=10, k=1.0, gamma=1.0, N=100.0)
        curve = UtilityCurve(a=0.001, b=0.01)
        _, best = grid_argmax(profit_curve(params, curve), GRID_EPS, params.N, GRID_STEPS)
        assert best < 0.0

    def test_closed_form_matches_grid_oracle_randomized(self):
        rng = np.random.default_rng(17)
        positive, total = 0, 0
        while total < 120:
            params = MarketParams(
                M=int(rng.integers(50, 20_000)),
                k=float(rng.uniform(0.05, 2.0)),
                gamma=float(rng.uniform(0.2, 4.0)),
                N=float(rng.uniform(20.0, 200.0)),
            )
            curve = UtilityCurve(
                a=float(rng.uniform(0.1, 0.9)), b=float(rng.uniform(0.005, 0.05))
            )
            total += 1
            report = optimal_data_size(params, curve)
            arg, best = grid_argmax(
                profit_curve(params, curve), GRID_EPS, params.N, GRID_STEPS
            )
            step = (params.N - GRID_EPS) / (GRID_STEPS - 1)
            if report.rejected:
                assert best <= 1e-9
            else:
                positive += 1
                assert abs(report.q_star - arg) <= step
        assert positive >= 100  # the agreement property needs positive outcomes

    def test_first_order_condition_at_interior_optimum(self):
        report = optimal_data_size(TAXI_PARAMS, TAXI_CURVE)
        derivative = TAXI_PARAMS.M * TAXI_PARAMS.gamma * TAXI_CURVE.b / (
            4.0 * report.q_star
        ) - TAXI_PARAMS.k
        assert abs(derivative) < 1e-9

    def test_monotone_in_unit_cost(self):
        ks = np.linspace(0.05, 3.0, 40)
        sizes = [
            optimal_data_size(
                MarketParams(M=10000, k=float(k), gamma=1.0, N=100.0), TAXI_CURVE
            ).q_star
            for k in ks
        ]
        assert np.all(np.diff(sizes) <= 1e-12)

    def test_monotone_then_clamped_in_gamma(self):
        gammas = np.linspace(0.2, 6.0, 40)
        sizes = [
            optimal_data_size(
                MarketParams(M=10000, k=0.5, gamma=float(g), N=100.0), TAXI_CURVE
            ).q_star
            for g in gammas
        ]
        assert np.all(np.diff(sizes) >= -1e-12)
        assert sizes[-1] == 100.0

    def test_unclamped_optimum_scales_linearly(self):
        def q_plus(M, gamma):
            params = MarketParams(M=M, k=0.5, gamma=gamma, N=1e9)
            return optimal_data_size(params, TAXI_CURVE).q_star

        base = q_plus(10_000, 1.0)
        assert q_plus(10_000, 2.0) == pytest.approx(2.0 * base, rel=1e-12)
        assert q_plus(30_000, 1.0) == pytest.approx(3.0 * base, rel=1e-12)


class TestConcavityCheck:
    def test_unit_example(self):
        params = MarketParams(M=4, k=0.5, gamma=1.0, N=100.0)
        assert concavity_check(params, UtilityCurve(a=0.1, b=1.0), 1.0) == -1.0

    def test_every_factor_scales_the_value(self):
        # -M*gamma*b/(4*q^2) = -10*3*2/(4*5^2), at gamma != 1
        params = MarketParams(M=10, k=0.5, gamma=3.0, N=100.0)
        assert concavity_check(params, UtilityCurve(a=0.1, b=2.0), 5.0) == -60.0 / 100.0

    def test_always_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = MarketParams(
                M=int(rng.integers(1, 10_000)),
                k=float(rng.uniform(0.01, 5.0)),
                gamma=float(rng.uniform(0.01, 10.0)),
                N=100.0,
            )
            curve = UtilityCurve(a=0.2, b=float(rng.uniform(1e-4, 1.0)))
            q = float(rng.uniform(1e-3, 100.0))
            assert concavity_check(params, curve, q) <= 0.0

    def test_matches_finite_difference(self):
        q = 39.5
        h = 1e-3 * q
        g = lambda x: expected_profit(x, TAXI_PARAMS, TAXI_CURVE)
        numeric = (g(q + h) - 2.0 * g(q) + g(q - h)) / (h * h)
        analytic = concavity_check(TAXI_PARAMS, TAXI_CURVE, q)
        assert numeric == pytest.approx(analytic, rel=1e-4)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            concavity_check(TAXI_PARAMS, TAXI_CURVE, 0.0)

    def test_array_of_sizes_is_checked_and_computed_on_the_checked_floats(self):
        qs = [2.0, 39.5]
        out = concavity_check(TAXI_PARAMS, TAXI_CURVE, qs)
        assert out.tolist() == [concavity_check(TAXI_PARAMS, TAXI_CURVE, q) for q in qs]
        assert type(concavity_check(TAXI_PARAMS, TAXI_CURVE, np.float64(2.0))) is float
        with pytest.raises(ValueError, match=r"^data size: must be positive and finite, got 0\.0"):
            concavity_check(TAXI_PARAMS, TAXI_CURVE, [2.0, 0.0])


class TestGridArgmax:
    def test_known_parabola(self):
        arg, val = grid_argmax(lambda x: -((x - 3.0) ** 2), 0.0, 10.0, 10_001)
        assert abs(arg - 3.0) <= 10.0 / 10_000
        assert val == pytest.approx(0.0, abs=1e-5)

    def test_expected_profit_argmax(self):
        f = lambda q: expected_profit(q, TAXI_PARAMS, TAXI_CURVE)
        arg, _ = grid_argmax(f, GRID_EPS, 100.0, 20_001)
        assert abs(arg - 39.5) <= (100.0 - GRID_EPS) / 20_000

    def test_expected_profit_evaluates_the_grid_in_one_call(self):
        calls = []

        def f(qs):
            calls.append(np.shape(qs))
            return expected_profit(qs, TAXI_PARAMS, TAXI_CURVE)

        grid_argmax(f, GRID_EPS, 100.0, GRID_STEPS)
        assert calls == [(GRID_STEPS,)]

    def test_constant_returns_low_end(self):
        arg, val = grid_argmax(lambda x: np.full_like(x, 1.5), 2.0, 5.0, 100)
        assert arg == 2.0
        assert val == 1.5

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            grid_argmax(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 10)
        # the error names the first grid point where the objective is not finite
        with pytest.raises(ValueError, match=r"not finite at 0\.5$"):
            grid_argmax(lambda x: np.where(x < 0.5, x, np.inf), 0.0, 1.0, 11)

    def test_scalar_valued_objective_rejected(self):
        with pytest.raises(ValueError, match="whole grid"):
            grid_argmax(lambda x: 1.5, 0.0, 1.0, 10)

    def test_objective_error_propagates_without_retry(self):
        calls = []

        def broken(xs):
            calls.append(xs)
            raise ZeroDivisionError("objective bug")

        with pytest.raises(ZeroDivisionError, match="objective bug"):
            grid_argmax(broken, 0.0, 1.0, 10)
        assert len(calls) == 1

    def test_two_points_are_a_grid(self):
        assert grid_argmax(lambda x: -x, 0.0, 1.0, 2) == (0.0, -0.0)

    @pytest.mark.parametrize("steps", [2.5, 3.7, 10.0, float("nan"), "10"])
    def test_steps_must_be_an_integer(self, steps):
        message = f"^{re.escape(f'grid steps: must be an integer, got {steps!r}')}$"
        with pytest.raises(ValueError, match=message):
            grid(0.0, 1.0, steps)
        with pytest.raises(ValueError, match=message):
            grid_argmax(lambda x: x, -1.0, 1.0, steps)
        assert len(grid(0.0, 1.0, np.int64(3))) == 3

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, 0.0, 1.0, 1)
        # a bound that is no number, or is past the float range, is named
        with pytest.raises(ValueError, match="^grid bound hi: must be a number, got '1'$"):
            grid(0, "1", 3)
        # an int past the float range is shown as _reals shows any value, cut short
        with pytest.raises(ValueError, match=f"^grid bound lo: must be a number, got "
                                             f"{re.escape(reprlib.repr(10**400))}$"):
            grid(10**400, 10**401, 3)
        for lo, hi, name in ((0.0, float("inf"), "hi"), (float("-inf"), 1.0, "lo"),
                             (float("nan"), 1.0, "lo"), (0.0, float("nan"), "hi")):
            with pytest.raises(ValueError, match=f"bound {name} must be finite"):
                grid_argmax(lambda x: x, lo, hi, 10)
