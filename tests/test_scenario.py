import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from datamarket import (
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    simulate,
    taxi_scenario,
    taxi_scenario_path,
)

GOOD = """
# demo scenario
M = 200
k = 0.5
gamma = 1.5   # inline comment
N = 100
a = 0.45
b = 0.01
q = 25
tau = 60
seed = 7
trials = 12
"""


class TestParsing:
    def test_round_trip(self):
        config = parse_scenario(GOOD)
        assert config.M == 200
        assert config.k == 0.5
        assert config.gamma == 1.5
        assert config.N == 100.0
        assert (config.a, config.b) == (0.45, 0.01)
        assert config.q == 25.0
        assert config.tau == 60.0
        assert config.seed == 7
        assert config.trials == 12

    def test_optional_fields_default(self):
        config = parse_scenario("M=10\nk=1\ngamma=1\nN=50\na=0.4\nb=0.02\n")
        assert config.q is None
        assert config.tau is None
        assert config.seed == 0
        assert config.trials == 100

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_scenario(GOOD + "\nbudget = 3\n")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate field"):
            parse_scenario(GOOD + "\nk = 0.7\n")

    def test_missing_required_fields_reported(self):
        with pytest.raises(ValueError, match="missing required fields: gamma"):
            parse_scenario("M=10\nk=1\nN=50\na=0.4\nb=0.02\n")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match="field M"):
            parse_scenario(GOOD.replace("M = 200", "M = 200.5"))

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="field k"):
            parse_scenario(GOOD.replace("k = 0.5", "k = cheap"))

    def test_line_without_assignment_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_scenario("M 10\n")

    def test_errors_name_their_line_counting_comments_and_blanks(self):
        with pytest.raises(ValueError, match="^scenario line 1: expected 'key = value'"):
            parse_scenario("M 10\n")
        with pytest.raises(ValueError, match="^scenario line 3: unknown field 'x'"):
            parse_scenario("# a comment\n\nx = 1\n")


class TestValidation:
    def base(self, **overrides):
        fields = dict(
            M=100, k=0.5, gamma=1.0, N=100.0, a=0.45, b=0.01, q=10.0, seed=0, trials=5
        )
        fields.update(overrides)
        return fields

    def test_field_named_in_errors(self):
        with pytest.raises(ValueError, match="scenario field M"):
            ScenarioConfig(**self.base(M=0))
        for name, bad in (("k", -1.0), ("gamma", 0.0), ("N", float("nan")),
                          ("a", float("inf")), ("b", -0.01), ("b", float("inf"))):
            with pytest.raises(ValueError, match=f"scenario field {name}:"):
                ScenarioConfig(**self.base(**{name: bad}))
        with pytest.raises(ValueError, match="field trials"):
            ScenarioConfig(**self.base(trials=0))
        with pytest.raises(ValueError, match="field q"):
            ScenarioConfig(**self.base(q=101.0))
        with pytest.raises(ValueError, match="field q"):
            ScenarioConfig(**self.base(q=0.0))
        for tau in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scenario field tau"):
                ScenarioConfig(**self.base(tau=tau))
        with pytest.raises(ValueError, match="scenario field seed"):
            ScenarioConfig(**self.base(seed=-1))

    @pytest.mark.parametrize("name", ["M", "trials", "seed"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), 1.0, np.float64(1.0), "3", None])
    def test_counts_must_be_integers(self, name, bad):
        message = f"scenario field {name}: must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(taxi_scenario(), **{name: bad})

    @pytest.mark.parametrize("name", ["M", "trials", "seed"])
    @pytest.mark.parametrize("value", [True, np.int64(3), np.uint64(3)])
    def test_counts_are_stored_as_ints(self, name, value):
        stored = getattr(replace(taxi_scenario(), **{name: value}), name)
        assert stored == int(value) and type(stored) is int

    def test_counts_given_as_a_flag_or_numpy_scalars_simulate(self):
        config = replace(taxi_scenario(), M=np.int64(100), trials=True, seed=np.uint64(3))
        report = simulate(config)
        assert [(v, type(v)) for v in (report.M, report.trials, report.seed)] == [
            (100, int), (1, int), (3, int)]

    @pytest.mark.parametrize("name", ["k", "gamma", "N", "a", "b", "q", "tau"])
    # numpy would parse a str or bytes, so each is refused before numpy sees it
    @pytest.mark.parametrize("bad", [np.array([0.5]), [0.5, 1.0], [0.5, [1.0]],
                                     np.ones((1, 1)), "0.5", b"1"])
    def test_parameters_must_be_numbers(self, name, bad):
        message = f"scenario field {name}: must be a number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(taxi_scenario(), **{name: bad})

    @pytest.mark.parametrize("name", ["k", "gamma", "N", "a", "b", "q", "tau"])
    @pytest.mark.parametrize("kind", [np.float64, np.array])
    def test_a_numpy_scalar_parameter_is_a_number(self, name, kind):
        taxi = taxi_scenario()
        config = replace(taxi, **{name: kind(getattr(taxi, name))})
        assert config == taxi and type(getattr(config, name)) is float

    @pytest.mark.parametrize("seed", [0, np.int64(5), 2**64, 2**200])
    def test_seeds_of_any_size_are_taken(self, seed):
        assert replace(taxi_scenario(), seed=seed).seed == seed

    def test_warns_when_performance_exceeds_one(self):
        with pytest.warns(UserWarning, match="exceeds 1") as record:
            ScenarioConfig(**self.base(a=0.99, b=0.01))
        assert record[0].filename == __file__  # the line that built the scenario

    def test_warns_when_performance_negative_at_unit_size(self):
        with pytest.warns(UserWarning, match="negative") as record:
            ScenarioConfig(**self.base(a=-0.05))
        assert record[0].filename == __file__

    def test_bounds_of_the_run_fields_are_accepted(self):
        config = ScenarioConfig(**self.base(trials=1, q=100.0))
        assert (config.trials, config.q) == (1, config.N)

    def test_no_warning_at_the_ends_of_the_unit_interval(self):
        # performance exactly 1 at N = 1, and exactly 0 at data size 1
        at_bounds = (self.base(a=1.0, N=1.0, q=1.0), self.base(a=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fields in at_bounds:
                ScenarioConfig(**fields)
        for fields, match in zip(at_bounds, ("exceeds 1", "negative")):
            fields["a"] = math.nextafter(fields["a"], math.inf if fields["a"] else -math.inf)
            with pytest.warns(UserWarning, match=match):
                ScenarioConfig(**fields)

    def test_market_and_curve_are_built_once_and_are_no_fields(self):
        config, twin = ScenarioConfig(**self.base()), ScenarioConfig(**self.base())
        assert config.market is config.market and config.curve is config.curve
        assert (config.market.M, config.curve.b) == (100, 0.01)
        # replace builds a new instance, whose cache is its own
        assert replace(config, k=2.0, b=0.02).market.k == 2.0
        assert replace(config, k=2.0, b=0.02).curve.b == 0.02
        assert config == twin and hash(config) == hash(twin)
        assert len(fields(config)) == 10 and "market" not in repr(config)

    def test_model_requires_q(self):
        config = ScenarioConfig(**self.base(q=None))
        with pytest.raises(ValueError, match="field q"):
            config.model()


class TestBundledScenario:
    def test_fixture_values(self):
        config = taxi_scenario()
        assert config.M == 10000
        assert config.k == 0.5
        assert config.gamma == 1.0
        assert config.N == 100.0
        assert config.a == 0.4944
        assert config.b == 0.0079
        assert config.q == 50.0
        assert config.tau == 180.0
        assert config.trials == 100

    def test_fixture_file_loads_from_path(self):
        path = taxi_scenario_path()
        assert path.name == "scenario.paper.cfg"
        assert load_scenario(path) == taxi_scenario()
