import math
import re
import reprlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from datamarket import (
    MAX_DRAWS,
    MAX_TRIALS,
    ScenarioError,
    ScenarioConfig,
    ValuationModel,
    check_draws,
    data_cost,
    expected_profit,
    optimal_price,
    sale_profit,
    sample_valuations,
    simulate,
    sweep,
    taxi_scenario,
)
from datamarket import market
from datamarket.market import valuation_cdf


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
        # trial t, replayed alone, is the one-trial run seeded seed + t
        profits = [simulate(replace(config, trials=1, seed=config.seed + t)).empirical_mean
                   for t in range(60)]
        # every trial lands on one of exactly two outcomes
        assert set(profits) == {-cost, price - cost}
        assert np.mean(profits) == report.empirical_mean
        assert np.std(profits, ddof=1) == report.empirical_std

    def test_trials_replay_across_a_word_boundary(self):
        # the trial seeds 2**32 - 20 ... 2**32 + 19 are hashed as one block
        config = small_config(M=50, trials=40, seed=2**32 - 20)
        report = simulate(config)
        price = optimal_price(config.curve, config.q, config.gamma)
        cost = data_cost(config.q, config.k)
        profits = np.array([
            sale_profit(np.count_nonzero(
                sample_valuations(config.M, config.model(), config.seed + t) >= price),
                price, cost)
            for t in range(config.trials)])
        assert profits.mean() == report.empirical_mean
        assert profits.std(ddof=1) == report.empirical_std

    def test_agrees_with_analytic_expectation(self):
        config = small_config(M=2000, trials=60)
        report = simulate(config)
        assert report.within_three_se
        assert report.analytic_profit == expected_profit(
            config.q, config.market, config.curve
        )

    def test_flag_is_three_standard_errors_not_four(self):
        # at seed 1035 the mean lies 3.35 standard errors from the expectation
        report = simulate(replace(taxi_scenario(), M=100, trials=10, seed=1035))
        gap = abs(report.empirical_mean - report.analytic_profit)
        assert 3.0 * report.std_error < gap < 4.0 * report.std_error
        assert not report.within_three_se

    def test_a_run_on_its_expectation_is_within_three_se(self):
        # M = 2 at the price s/2: at seed 8 both trials sell to exactly one of
        # the two customers, the expected count, so the gap and the se are 0
        report = simulate(small_config(M=2, trials=2, seed=8))
        assert report.empirical_mean == report.analytic_profit
        assert report.std_error == 0.0
        assert report.within_three_se

    def test_one_trial_has_no_spread(self):
        report = simulate(small_config(trials=1))
        assert report.empirical_std == report.std_error == 0.0

    def test_two_trials_have_their_spread(self):
        config = small_config(trials=2)
        profits = [simulate(replace(config, trials=1, seed=config.seed + t)).empirical_mean
                   for t in range(2)]
        assert simulate(config).empirical_std == np.std(profits, ddof=1) > 0.0

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


class TestExactLaw:
    """empirical_mean and empirical_std against the exact law of the trials'
    outcomes, not against a replay of the stream that made them."""

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 50])
    @pytest.mark.parametrize("k, q", [(0.5, 50.0), (0.1, 3.0)], ids=("kq-25", "kq-0.3"))
    def test_one_customer_std_is_the_two_point_sample_std(self, n, k, q):
        # with M = 1 a trial's profit is p - kq or -kq, so w winners in n trials
        # give the mean w*p/n - kq and the sample std p*sqrt(w(n-w)/(n(n-1)))
        for seed in range(0, 200 * n, n):  # 200 runs on disjoint seeds
            report = simulate(small_config(M=1, trials=n, seed=seed, k=k, q=q))
            p = report.threshold_price
            w = (report.empirical_mean + data_cost(q, k)) * n / p
            assert abs(w - round(w)) <= 1e-6, (seed, w)
            w = round(w)
            exact = p * math.sqrt(w * (n - w) / (n * (n - 1)))
            assert abs(report.empirical_std - exact) <= 1e-12 * exact, (seed, w)

    @pytest.mark.parametrize("trials", [2, 3, 7, 20, 50])
    @pytest.mark.parametrize("k, q", [(0.5, 50.0), (0.1, 1.0), (0.1, 3.0), (0.7, 3.0)])
    def test_a_price_all_or_none_pay_has_no_spread(self, k, q, trials):
        config = small_config(M=3, trials=trials, k=k, q=q)
        s = config.model().support_max
        rows = sweep(config, "price", 0.0, 2 * s, 9)
        edge = [row for row in rows if row.value == 0.0 or row.value >= s]
        assert rows[0].value == 0.0 and len(edge) >= 5
        for row in edge:  # every valuation lies in [0, s): all buy at 0, none at s
            assert (row.empirical_mean, row.empirical_std) == (-data_cost(q, k), 0.0)


class TestDrawBound:
    def test_admits_the_largest_benchmark_sweep(self):
        # 100 rows of 100 trials of M = 10**4: exactly MAX_DRAWS
        assert MAX_DRAWS == 10_000 * 100 * 100
        check_draws(10_000, 100, 100)
        with pytest.raises(ValueError, match=r"^steps: M x trials x rows = "
                                             r"10000 x 100 x 101 = 101000000 "):
            check_draws(10_000, 100, 101)

    def test_names_the_first_factor_over_the_bound(self):
        for sizes, name in (((10**9, 1, 1), "M"), ((10**4, 10**5, 1), "trials"),
                            ((10**4, 10, 10**4), "steps")):
            with pytest.raises(ValueError, match=f"^{name}: "):
                check_draws(*sizes, names=("M", "trials", "steps"))

    def test_checked_before_anything_is_drawn(self):
        # 10**15 valuations: weeks of drawing if sampling were reached
        huge = taxi_scenario()
        for config, name in ((replace(huge, M=10**15), "scenario field M"),
                             (replace(huge, trials=10**15), "scenario field trials")):
            with pytest.raises(ValueError, match=f"^{name}: "):
                simulate(config)
        with pytest.raises(ValueError, match="^steps: "):
            sweep(huge, "q", 1.0, 100.0, 10**15)

    def test_memory_does_not_grow_with_M(self):
        # a trial holds at most a chunk of raw draws, whatever M is, so the
        # draw bound bounds time alone
        simulate(small_config(M=10, trials=2))  # the caches are filled
        peaks = []
        for M in (10**5, 10**7):
            tracemalloc.start()
            try:
                simulate(small_config(M=M, trials=2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 0.25e6, peaks

    def test_memory_does_not_grow_with_M_on_four_threads(self, monkeypatch):
        # four parts draw chunks of a quarter each, so a run split across
        # them holds no more than a run on one thread; whether the parts of a
        # short run overlap is up to the scheduler, so the smaller run is not split
        simulate(small_config(M=10, trials=4))  # the caches are filled
        peaks = []
        for M in (10**5, 10**7):
            if M > 10**5:
                monkeypatch.setattr(market, "_cpus", lambda: 4)
                monkeypatch.setattr(market, "_SPLIT_M", 1)
                monkeypatch.setattr(market, "_SPLIT_DRAWS", 1)
                simulate(small_config(M=10, trials=4))  # a split's caches are filled
            tracemalloc.start()
            try:
                simulate(small_config(M=M, trials=4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 0.25e6, peaks

    @pytest.mark.parametrize("parts", [1, 4])
    def test_memory_does_not_grow_with_trials_past_the_counts(self, parts, monkeypatch):
        # a run holds its int64 counts, 8 bytes a trial, and no per-part list
        # of counts.  Each part also hashes one block of seeds at a time,
        # whose words take about 180 kB at _BLOCK = 1024; small blocks keep
        # what the parts' overlap in time adds well inside the slack
        monkeypatch.setattr(market, "_cpus", lambda: parts)
        monkeypatch.setattr(market, "_SPLIT_M", 1)
        monkeypatch.setattr(market, "_SPLIT_DRAWS", 1)
        monkeypatch.setattr(market, "_BLOCK", 64)
        unit = market._UNITS // 2
        market._count_buyers(1, [unit], 0, 4 * parts)  # the caches are filled
        peaks = {}
        for trials in (10**3, 10**4):
            tracemalloc.start()
            try:
                market._count_buyers(1, [unit], 0, trials)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**4] - peaks[10**3] <= 8 * (10**4 - 10**3) + 0.1e6, peaks

    def test_factors_are_integers_before_they_multiply(self):
        # "3" * (M * trials) would build a 1 MB string before failing
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=r"^grid steps: must be an integer, got '3'$"):
                sweep(replace(taxi_scenario(), trials=100), "q", 1.0, 100.0, "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1e6, peak
        for sizes, bad in (((10.5, 1, 1), "M: must be an integer, got 10.5"),
                           ((10, "2", 1), "trials: must be an integer, got '2'"),
                           ((10, 2, "3"), "steps: must be an integer, got '3'"),
                           ((10**9, 1, 2.5), "steps: must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
                check_draws(*sizes, names=("M", "trials", "steps"))

    @pytest.mark.parametrize("M", [10.0, np.float64(10.0), "10"])
    def test_M_is_an_integer_at_every_boundary(self, M):
        # a scenario refuses M by the rule check_draws follows, so no scenario
        # that simulate runs has an M that check_draws would refuse
        bad = f"^scenario field M: must be an integer, got {re.escape(repr(M))}$"
        with pytest.raises(ValueError, match=bad):
            replace(taxi_scenario(), M=M)
        with pytest.raises(ValueError, match=bad):
            check_draws(M, 1)
        config = replace(taxi_scenario(), M=np.int64(10), trials=2)
        assert config.market.M == 10 and type(config.market.M) is int
        assert simulate(config) == simulate(replace(config, M=10))

    def test_trials_are_bounded_whatever_M_is(self):
        # at M = 1 the draw bound would admit 10**8 trials, some 50 minutes
        assert MAX_TRIALS == 10**6
        check_draws(1, 10**6)
        check_draws(1, 10**4, 100)
        with pytest.raises(ValueError, match=r"^trials: trials x rows = 1000001 x 1 = "
                                             r"1000001 trials, over the limit of "
                                             r"1000000$"):
            check_draws(1, 10**6 + 1, names=("M", "trials", "steps"))
        with pytest.raises(ValueError, match=r"^steps: trials x rows = 10000 x 101 = "):
            check_draws(1, 10**4, 101, names=("M", "trials", "steps"))
        with pytest.raises(ValueError, match="^scenario field trials: trials x rows"):
            simulate(replace(taxi_scenario(), M=1, trials=10**6 + 1))


class TestSweepValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(small_config(), "price_and_q", 0.0, 1.0, 10)

    def test_only_the_scenarios_own_faults_are_scenario_errors(self):
        with pytest.raises(ScenarioError, match="expected profit overflows"):
            sweep(replace(small_config(), gamma=1e308), "q", 1.0, 50.0, 3)
        with pytest.raises(ScenarioError, match="scenario field q: required"):
            sweep(replace(small_config(), q=None), "price", 0.0, 1.0, 3)
        for parameter, lo, hi in (("q", 1.0, 1e3), ("gamma", 1.0, 1e308),
                                  ("price", -1.0, 1.0)):
            with pytest.raises(ValueError) as excinfo:
                sweep(small_config(), parameter, lo, hi, 3)
            assert type(excinfo.value) is ValueError

    def test_the_first_fault_in_row_order_is_raised(self, monkeypatch):
        # gamma rows 1e154 and 1e308: row 0's Monte-Carlo std overflows, and
        # row 1's expected profit does too; from 1e152 only row 1 faults, and
        # only once row 0 has counted
        config = replace(taxi_scenario(), trials=5)
        module = sys.modules["datamarket.simulate"]
        counted, count_buyers = [], module._count_buyers

        def counting(M, units, first_seed, trials):
            counted.append(len(units))
            return count_buyers(M, units, first_seed, trials)

        monkeypatch.setattr(module, "_count_buyers", counting)
        with pytest.raises(ValueError, match=r"^gamma = 1e\+154 \(row 1 of 2\): "
                                             "Monte-Carlo profit overflows: ") as first:
            sweep(config, "gamma", 1e154, 1e308, 2)
        with pytest.raises(ValueError, match=r"^gamma = 1e\+308 \(row 2 of 2\): "
                                             "expected profit overflows at data size ") as second:
            sweep(config, "gamma", 1e152, 1e308, 2)
        with pytest.raises(ValueError, match=r"^gamma = 1e\+307 \(row 1 of 2\): "
                                             "expected profit overflows at data size ") as third:
            sweep(config, "gamma", 1e307, 1e308, 2)  # row 0 faults: nothing counts
        assert counted == [1, 1, 0]
        assert [first.value.index, second.value.index, third.value.index] == [0, 1, 0]

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            sweep(small_config(), "price", 1.0, 1.0, 10)
        with pytest.raises(ValueError, match="grid points"):
            sweep(small_config(), "price", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="^grid steps: must be an integer, got 2.5$"):
            sweep(small_config(), "q", 1.0, 100.0, 2.5)
        with pytest.raises(ValueError, match="bound hi"):
            sweep(small_config(), "price", 0.0, float("inf"), 10)
        # a bound that is no number, or is past the float range, is named
        with pytest.raises(ValueError, match="^grid bound hi: must be a number, got '100'$"):
            sweep(small_config(), "q", 1.0, "100", 3)
        with pytest.raises(ValueError, match=f"^grid bound lo: must be a number, got "
                                             f"{re.escape(reprlib.repr(10**400))}$"):
            sweep(small_config(), "k", 10**400, 10**401, 3)

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

    def test_customer_valued_exactly_at_the_price_buys(self):
        # row 0 draws with the config seed and is priced at its lowest valuation
        config = replace(taxi_scenario(), M=5, trials=1, seed=7)
        values = sample_valuations(5, config.model(), seed=7)
        low = float(values.min())
        row = sweep(config, "price", low, float(values.max()) + 0.01, 2)[0]
        assert row.value == low
        assert row.empirical_mean == 5 * low - config.k * config.q
        assert row.empirical_mean == -24.408487705868133

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

    @pytest.mark.parametrize("parameter, lo, hi, config", [
        ("k", 0.001, 1.0, small_config(M=10, a=0.001, b=0.01, q=None, trials=2)),
        ("gamma", 50.0, 150.0, small_config(M=10, k=1.0, a=0.001, b=0.01, q=None,
                                             trials=3)),
    ])
    def test_every_column_of_a_rejected_row_is_positive_zero(self, parameter, lo, hi,
                                                              config):
        # == cannot tell -0.0 from 0.0; the sign bit can
        rows = sweep(config, parameter, lo, hi, 25)
        rejected = [row for row in rows if row.optimal_q == 0.0]
        assert rejected and len(rejected) < len(rows)
        for row in rejected:
            for x in (row.expected_profit, row.optimal_price, row.optimal_q,
                      row.empirical_mean, row.empirical_std):
                assert x == 0.0 and math.copysign(1.0, x) == 1.0, row

    def test_price_rows_earn_the_sale_profit_of_their_expected_buyers(self):
        config = small_config()
        model = config.model()
        cost = data_cost(config.q, config.k)
        rows = sweep(config, "price", 0.0, 2.0 * model.support_max, 41)
        assert rows[-1].value > model.support_max
        for row in rows:
            buyers = config.M * (1.0 - valuation_cdf(row.value, model))
            assert (row.expected_profit.hex()
                    == sale_profit(buyers, row.value, cost).hex()), row

    def test_row_seeds_skip_rejected_rows(self):
        # row r, trial t draws what sample_valuations draws with seed
        # seed + r*trials + t; the first two gamma rows are rejected and draw
        # nothing, so the three accepted rows replay seeds 6 to 14
        config = small_config(M=10, k=1.0, a=0.001, b=0.01, q=None, seed=0, trials=3)
        rows = sweep(config, "gamma", 50.0, 150.0, 5)
        assert [row.optimal_q > 0 for row in rows] == [False, False, True, True, True]
        assert [row.empirical_mean for row in rows[:2]] == [0.0, 0.0]
        seeds = iter(range(6, 15))
        for row in rows[2:]:
            model = ValuationModel.from_market(config.curve, row.optimal_q, row.value)
            cost = data_cost(row.optimal_q, config.k)
            profits = np.array([
                sale_profit(np.count_nonzero(
                    sample_valuations(config.M, model, seed) >= row.optimal_price),
                    row.optimal_price, cost)
                for _, seed in zip(range(config.trials), seeds)])
            assert profits.mean() == row.empirical_mean
            assert profits.std(ddof=1) == row.empirical_std
        assert next(seeds, None) is None

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_a_sweep_split_across_threads_gives_the_same_rows(self, parts, monkeypatch):
        # rejected gamma rows, and price rows past the support, draw nothing
        config = small_config(M=10, k=1.0, a=0.001, b=0.01, seed=0, trials=3)
        grids = (("gamma", 50.0, 150.0, 5), ("price", 0.0, 1.0, 7), ("q", 1.0, 90.0, 4))
        serial = [sweep(config, *grid) for grid in grids]
        monkeypatch.setattr(market, "_cpus", lambda: parts)
        monkeypatch.setattr(market, "_SPLIT_M", 1)
        monkeypatch.setattr(market, "_SPLIT_DRAWS", 1)
        assert [sweep(config, *grid) for grid in grids] == serial

    def test_gamma_sweep_runs_where_the_base_optimum_overflows(self):
        # M*gamma = 5e309 at the configured gamma; gamma rows re-optimize at
        # their own gamma, so only the sweeps that report the global q* fail
        config = small_config(gamma=1e307, trials=2)
        with pytest.raises(ValueError, match="expected profit overflows"):
            sweep(config, "q", 1.0, 100.0, 3)
        rows = sweep(config, "gamma", 0.5, 2.0, 3)
        assert all(row.expected_profit > 0 for row in rows)

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
