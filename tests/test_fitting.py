import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from datamarket import (
    ExperimentPoint,
    PredictionRecord,
    UtilityCurve,
    data_utility,
    evaluate_fit,
    fit_utility,
    satisfaction_rate,
)


def records_with_errors(*errors):
    return [PredictionRecord(y_true=100.0, y_pred=100.0 + e) for e in errors]


def exact_points(curve, sizes):
    return [ExperimentPoint(q=q, alpha=data_utility(q, curve)) for q in sizes]


class TestTypes:
    def test_prediction_record_requires_finite(self):
        with pytest.raises(ValueError):
            PredictionRecord(y_true=float("nan"), y_pred=0.0)

    def test_experiment_point_invariants(self):
        with pytest.raises(ValueError):
            ExperimentPoint(q=0.0, alpha=0.5)
        with pytest.raises(ValueError):
            ExperimentPoint(q=1.0, alpha=1.1)
        with pytest.raises(ValueError):
            ExperimentPoint(q=1.0, alpha=-0.1)
        for alpha in (0.0, 1.0):  # both ends of [0, 1] are performances
            assert ExperimentPoint(q=1.0, alpha=alpha).alpha == alpha


class TestSatisfactionRate:
    def test_direct_count(self):
        assert satisfaction_rate(records_with_errors(30.0, 250.0, 5.0), 60.0) == (
            pytest.approx(2.0 / 3.0)
        )

    def test_everything_under_large_tolerance(self):
        assert satisfaction_rate(records_with_errors(30.0, 250.0, 5.0), 300.0) == 1.0

    def test_error_equal_to_tolerance_is_excluded(self):
        assert satisfaction_rate(records_with_errors(60.0), 60.0) == 0.0
        assert satisfaction_rate(records_with_errors(-60.0), 60.0) == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            satisfaction_rate([], 60.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tolerance_rejected(self, tau):
        with pytest.raises(ValueError):
            satisfaction_rate(records_with_errors(1.0), tau)

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=60))
    def test_monotone_in_tolerance_and_bounded(self, errors):
        records = records_with_errors(*errors)
        rates = [satisfaction_rate(records, tau) for tau in (10.0, 60.0, 180.0, 300.0)]
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        above_max = max(abs(e) for e in errors) + 1.0
        assert satisfaction_rate(records, above_max) == 1.0


class TestFitUtility:
    def test_recovers_exact_model(self):
        truth = UtilityCurve(a=0.5, b=0.01)
        report = fit_utility(exact_points(truth, (1.0, 10.0, 100.0, 1000.0)))
        assert report.curve.a == pytest.approx(0.5, abs=1e-9)
        assert report.curve.b == pytest.approx(0.01, abs=1e-9)
        assert report.rmse < 1e-12
        assert report.n_points == 4

    def test_two_points_determine_the_line(self):
        points = [
            ExperimentPoint(q=1.0, alpha=0.4944),
            ExperimentPoint(q=math.e, alpha=0.5023),
        ]
        report = fit_utility(points)
        assert report.curve.a == pytest.approx(0.4944, abs=1e-12)
        assert report.curve.b == pytest.approx(0.0079, abs=1e-12)

    def test_symmetric_noise_cancels_at_mirrored_positions(self):
        truth = UtilityCurve(a=0.5, b=0.05)
        eps = 0.01
        points = []
        for q in (math.exp(-1.0), math.exp(1.0)):
            alpha = data_utility(q, truth)
            points.append(ExperimentPoint(q=q, alpha=alpha + eps))
            points.append(ExperimentPoint(q=q, alpha=alpha - eps))
        report = fit_utility(points)
        assert report.curve.a == pytest.approx(truth.a, abs=1e-12)
        assert report.curve.b == pytest.approx(truth.b, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_order_invariant(self):
        rng = np.random.default_rng(12)
        points = [
            ExperimentPoint(q=float(q), alpha=float(a))
            for q, a in zip(rng.uniform(1, 500, 20), rng.uniform(0.3, 0.9, 20))
        ]
        forward = fit_utility(points)
        shuffled = list(points)
        rng.shuffle(shuffled)
        backward = fit_utility(shuffled)
        assert backward.curve.a == pytest.approx(forward.curve.a, rel=1e-12)
        assert backward.curve.b == pytest.approx(forward.curve.b, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_beats_random_probe_candidates(self):
        rng = np.random.default_rng(8)
        points = [
            ExperimentPoint(q=float(q), alpha=float(a))
            for q, a in zip(rng.uniform(1, 200, 15), rng.uniform(0.2, 0.8, 15))
        ]
        report = fit_utility(points)
        best = evaluate_fit(report.curve, points)
        for _ in range(300):
            candidate = UtilityCurve(
                a=report.curve.a + float(rng.normal(scale=0.1)),
                b=report.curve.b + float(rng.normal(scale=0.02)),
            )
            assert best <= evaluate_fit(candidate, points) + 1e-15

    @pytest.mark.filterwarnings("ignore:fitted slope")
    def test_matches_brute_force_grid_on_small_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            n = int(rng.integers(3, 6))
            qs = np.sort(rng.uniform(1.0, 300.0, n))
            alphas = rng.uniform(0.3, 0.7, n)
            points = [
                ExperimentPoint(q=float(q), alpha=float(al))
                for q, al in zip(qs, alphas)
            ]
            report = fit_utility(points)
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
            fit_utility([ExperimentPoint(q=10.0, alpha=0.5)])
        with pytest.raises(ValueError):
            fit_utility(
                [ExperimentPoint(q=10.0, alpha=0.4), ExperimentPoint(q=10.0, alpha=0.6)]
            )

    def test_nonpositive_slope_flagged_not_rejected(self):
        points = [
            ExperimentPoint(q=1.0, alpha=0.8),
            ExperimentPoint(q=10.0, alpha=0.6),
            ExperimentPoint(q=100.0, alpha=0.4),
        ]
        with pytest.warns(UserWarning, match="not positive"):
            report = fit_utility(points)
        assert report.curve.b < 0

    def test_flat_slope_flagged(self):
        points = [ExperimentPoint(q=q, alpha=0.5) for q in (1.0, 10.0, 100.0)]
        with pytest.warns(UserWarning, match="not positive"):
            report = fit_utility(points)
        assert report.curve.b == 0.0


class TestEvaluateFit:
    def test_zero_residual_on_exact_model(self):
        truth = UtilityCurve(a=0.45, b=0.02)
        assert evaluate_fit(truth, exact_points(truth, (2.0, 20.0, 200.0))) == 0.0

    def test_uniform_offset_gives_offset_rmse(self):
        truth = UtilityCurve(a=0.45, b=0.02)
        delta = 0.03
        points = [
            ExperimentPoint(q=q, alpha=data_utility(q, truth) + delta)
            for q in (2.0, 20.0, 200.0)
        ]
        assert evaluate_fit(truth, points) == pytest.approx(delta, rel=1e-12)

    def test_fitted_curve_beats_generator_on_noisy_points(self):
        rng = np.random.default_rng(31)
        truth = UtilityCurve(a=0.5, b=0.02)
        points = [
            ExperimentPoint(
                q=float(q),
                alpha=float(
                    np.clip(data_utility(float(q), truth) + rng.normal(scale=0.01), 0, 1)
                ),
            )
            for q in rng.uniform(1, 400, 25)
        ]
        report = fit_utility(points)
        assert report.rmse <= evaluate_fit(truth, points) + 1e-15

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            evaluate_fit(UtilityCurve(a=0.5, b=0.01), [])
