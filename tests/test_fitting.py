import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from datamarket import (
    UtilityCurve,
    data_utility,
    evaluate_fit,
    hit_rate,
    least_squares_fit,
)

NAN, INF = float("nan"), float("inf")


def with_errors(*errors):
    """Predictions (y_true, y_pred) of 100 off by each error."""
    return np.full(len(errors), 100.0), 100.0 + np.array(errors, dtype=float)


# (first, second) shapes that are not two aligned columns; () is a Python float
BAD_SHAPES = [((2, 1), (2,)), ((2,), (2, 1)), ((2, 2), (2, 2)), ((), ()), ((2,), ())]


def shaped(shape, value):
    """A column of shape holding value, or value itself for the shape ()."""
    return np.full(shape, value) if shape else value


def shape_error(names, shapes):
    """A match for the error that names the fields and their shapes."""
    message = f"{names} must be one-dimensional, got shapes {shapes[0]} and {shapes[1]}"
    return f"^{re.escape(message)}$"


def exact_points(curve, sizes):
    """Data sizes and the performances the curve gives them."""
    q = np.array(sizes)
    return q, data_utility(q, curve)


class TestHitRate:
    def test_direct_count(self):
        assert hit_rate(*with_errors(30.0, 250.0, 5.0), 60.0) == pytest.approx(2.0 / 3.0)

    def test_everything_under_large_tolerance(self):
        assert hit_rate(*with_errors(30.0, 250.0, 5.0), 300.0) == 1.0

    def test_error_equal_to_tolerance_is_excluded(self):
        assert hit_rate(*with_errors(60.0), 60.0) == 0.0
        assert hit_rate(*with_errors(-60.0), 60.0) == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            hit_rate(np.array([]), np.array([]), 60.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, "0.1", 10**400])
    def test_nonpositive_tolerance_rejected(self, tau):
        # a value that is no number, or is past the float range, is refused
        # by the same ValueError
        with pytest.raises(ValueError, match="^tolerance: "):
            hit_rate(*with_errors(1.0), tau)

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=60))
    def test_monotone_in_tolerance_and_bounded(self, errors):
        pairs = with_errors(*errors)
        rates = [hit_rate(*pairs, tau) for tau in (10.0, 60.0, 180.0, 300.0)]
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        above_max = max(abs(e) for e in errors) + 1.0
        assert hit_rate(*pairs, above_max) == 1.0


class TestHitRateRefusesBadPairs:
    @pytest.mark.parametrize("pair", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, -INF),
                                      (-INF, -INF)])
    def test_non_finite_pair_is_named(self, pair):
        y_true, y_pred = np.array([1.0, pair[0], 2.0]), np.array([1.0, pair[1], 2.0])
        message = f"^prediction values must be finite, got \\({pair[0]}, {pair[1]}\\)$"
        with pytest.raises(ValueError, match=message):
            hit_rate(y_true, y_pred, 0.5)

    @pytest.mark.parametrize("y_true, y_pred", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])])
    def test_unequal_lengths_refused(self, y_true, y_pred):
        with pytest.raises(ValueError, match="^y_true and y_pred must have equal lengths"):
            hit_rate(y_true, y_pred, 0.5)

    @pytest.mark.parametrize("shapes", BAD_SHAPES)
    def test_columns_must_be_one_dimensional(self, shapes):
        # a (2, 1) column would broadcast against a (2,) one: 4 hits in 2 rows
        with pytest.raises(ValueError, match=shape_error("y_true and y_pred", shapes)):
            hit_rate(*(shaped(shape, 1.0) for shape in shapes), 0.1)

    @given(n=st.integers(1, 40), data=st.data())
    def test_one_bad_value_anywhere_is_refused(self, n, data):
        pairs = np.arange(2.0 * n).reshape(2, n)
        pairs[data.draw(st.integers(0, 1)), data.draw(st.integers(0, n - 1))] = (
            data.draw(st.sampled_from([NAN, INF, -INF])))
        with pytest.raises(ValueError, match="^prediction values must be finite"):
            hit_rate(*pairs, 0.5)


class TestLeastSquaresFit:
    def test_recovers_exact_model(self):
        truth = UtilityCurve(a=0.5, b=0.01)
        report = least_squares_fit(*exact_points(truth, (1.0, 10.0, 100.0, 1000.0)))
        assert report.curve.a == pytest.approx(0.5, abs=1e-9)
        assert report.curve.b == pytest.approx(0.01, abs=1e-9)
        assert report.rmse < 1e-12
        assert report.n_points == 4

    def test_two_points_determine_the_line(self):
        report = least_squares_fit(np.array([1.0, math.e]), np.array([0.4944, 0.5023]))
        assert report.curve.a == pytest.approx(0.4944, abs=1e-12)
        assert report.curve.b == pytest.approx(0.0079, abs=1e-12)

    def test_symmetric_noise_cancels_at_mirrored_positions(self):
        truth = UtilityCurve(a=0.5, b=0.05)
        eps = 0.01
        q, alpha = exact_points(truth, (math.exp(-1.0), math.exp(1.0)))
        report = least_squares_fit(np.repeat(q, 2), np.repeat(alpha, 2) + [eps, -eps] * 2)
        assert report.curve.a == pytest.approx(truth.a, abs=1e-12)
        assert report.curve.b == pytest.approx(truth.b, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_order_invariant(self):
        rng = np.random.default_rng(12)
        q, alpha = rng.uniform(1, 500, 20), rng.uniform(0.3, 0.9, 20)
        forward = least_squares_fit(q, alpha)
        order = rng.permutation(20)
        backward = least_squares_fit(q[order], alpha[order])
        assert backward.curve.a == pytest.approx(forward.curve.a, rel=1e-12)
        assert backward.curve.b == pytest.approx(forward.curve.b, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_beats_random_probe_candidates(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(1, 200, 15), rng.uniform(0.2, 0.8, 15)
        report = least_squares_fit(*points)
        best = evaluate_fit(report.curve, *points)
        for _ in range(300):
            candidate = UtilityCurve(
                a=report.curve.a + float(rng.normal(scale=0.1)),
                b=report.curve.b + float(rng.normal(scale=0.02)),
            )
            assert best <= evaluate_fit(candidate, *points) + 1e-15

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_matches_brute_force_grid_on_small_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            n = int(rng.integers(3, 6))
            qs = np.sort(rng.uniform(1.0, 300.0, n))
            alphas = rng.uniform(0.3, 0.7, n)
            report = least_squares_fit(qs, alphas)
            a_grid = np.linspace(report.curve.a - 0.05, report.curve.a + 0.05, 401)
            b_grid = np.linspace(report.curve.b - 0.02, report.curve.b + 0.02, 401)
            x = np.log(qs)
            resid = (
                alphas[None, None, :]
                - a_grid[:, None, None]
                - b_grid[None, :, None] * x[None, None, :]
            )
            sse = np.square(resid).sum(axis=2)
            i, j = np.unravel_index(np.argmin(sse), sse.shape)
            assert abs(report.curve.a - a_grid[i]) <= a_grid[1] - a_grid[0]
            assert abs(report.curve.b - b_grid[j]) <= b_grid[1] - b_grid[0]

    def test_degenerate_designs_rejected(self):
        with pytest.raises(ValueError):
            least_squares_fit(np.array([10.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            least_squares_fit(np.array([10.0, 10.0]), np.array([0.4, 0.6]))

    def test_nonpositive_slope_flagged_not_rejected(self):
        with pytest.warns(UserWarning, match="not positive") as record:
            report = least_squares_fit(np.array([1.0, 10.0, 100.0]),
                                       np.array([0.8, 0.6, 0.4]))
        assert report.curve.b < 0
        assert record[0].filename == __file__  # the warning names the caller's line

    def test_flat_slope_flagged(self):
        with pytest.warns(UserWarning, match="not positive"):
            report = least_squares_fit(np.array([1.0, 10.0, 100.0]), np.full(3, 0.5))
        assert report.curve.b == 0.0


class TestEvaluateFit:
    def test_zero_residual_on_exact_model(self):
        truth = UtilityCurve(a=0.45, b=0.02)
        assert evaluate_fit(truth, *exact_points(truth, (2.0, 20.0, 200.0))) == 0.0

    def test_uniform_offset_gives_offset_rmse(self):
        truth = UtilityCurve(a=0.45, b=0.02)
        delta = 0.03
        q, alpha = exact_points(truth, (2.0, 20.0, 200.0))
        assert evaluate_fit(truth, q, alpha + delta) == pytest.approx(delta, rel=1e-12)

    def test_fitted_curve_beats_generator_on_noisy_points(self):
        rng = np.random.default_rng(31)
        truth = UtilityCurve(a=0.5, b=0.02)
        q = rng.uniform(1, 400, 25)
        alpha = np.clip(data_utility(q, truth) + rng.normal(scale=0.01, size=25), 0, 1)
        report = least_squares_fit(q, alpha)
        assert report.rmse <= evaluate_fit(truth, q, alpha) + 1e-15

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="^points must be non-empty"):
            evaluate_fit(UtilityCurve(a=0.5, b=0.01), np.array([]), np.array([]))


FIT_CURVE = UtilityCurve(a=0.5, b=0.01)
# one core per case: each refuses bad points with the same message
POINT_CORES = {
    "least_squares_fit": lambda q, alpha: least_squares_fit(q, alpha).rmse,
    "evaluate_fit": lambda q, alpha: evaluate_fit(FIT_CURVE, q, alpha),
}
BAD = {  # per column: its field's name, and the values it refuses
    "q": ("data size", st.floats(max_value=0.0) | st.sampled_from([NAN, INF])),
    "alpha": ("performance", st.floats(max_value=0.0, exclude_max=True)
              | st.floats(min_value=1.0, exclude_min=True) | st.just(NAN)),
}


@pytest.mark.parametrize("core", POINT_CORES.values(), ids=POINT_CORES)
class TestPointCoresRefuseBadPoints:
    @pytest.mark.parametrize("q", [0.0, -1.0, -5e-324, NAN, INF, -INF])
    def test_bad_data_size_is_named(self, core, q):
        with pytest.raises(ValueError, match="^data size: must be positive and finite"):
            core(np.array([1.0, q, 10.0]), np.array([0.5, 0.5, 0.6]))

    @pytest.mark.parametrize("alpha", [-0.001, 1.001, NAN, INF, -INF])
    def test_performance_outside_the_unit_interval_is_named(self, core, alpha):
        message = f"^performance must lie in \\[0, 1\\], got {alpha}$"
        with pytest.raises(ValueError, match=message):
            core(np.array([1.0, 2.0, 10.0]), np.array([0.5, alpha, 0.6]))

    @pytest.mark.parametrize("q, alpha", [([1.0, 2.0], [0.5]), ([1.0], [0.5, 0.6])])
    def test_unequal_lengths_refused(self, core, q, alpha):
        with pytest.raises(ValueError, match="^q and alpha must have equal lengths"):
            core(q, alpha)

    @pytest.mark.parametrize("shapes", BAD_SHAPES)
    def test_columns_must_be_one_dimensional(self, core, shapes):
        with pytest.raises(ValueError, match=shape_error("q and alpha", shapes)):
            core(shaped(shapes[0], 10.0), shaped(shapes[1], 0.5))

    def test_values_on_the_bounds_are_accepted(self, core):
        # the smallest positive double, and performances exactly 0 and 1
        q, alpha = np.array([5e-324, 1.0, 10.0]), np.array([0.0, 1.0, 1.0])
        assert math.isfinite(core(q, alpha))

    @given(n=st.integers(2, 30), data=st.data())
    def test_one_bad_value_anywhere_is_refused(self, core, n, data):
        columns = {"q": np.geomspace(1.0, 100.0, n), "alpha": np.linspace(0.4, 0.6, n)}
        column = data.draw(st.sampled_from(sorted(BAD)))
        field, bad = BAD[column]
        columns[column][data.draw(st.integers(0, n - 1))] = data.draw(bad)
        with pytest.raises(ValueError, match=f"^{field}"):
            core(**columns)
