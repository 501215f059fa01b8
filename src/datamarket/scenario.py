"""Scenario configs: the line-oriented `key = value` file format and validation."""

from __future__ import annotations

import warnings
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from .market import (
    MarketParams,
    UtilityCurve,
    ValuationModel,
    data_utility,
    require_positive,
)

__all__ = [
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
    "taxi_scenario",
    "taxi_scenario_path",
]

@dataclass(frozen=True)
class ScenarioConfig:
    """One market scenario: market constants, utility curve, and run controls.

    q and tau are optional; commands that need them fail with the field name
    when they are missing.  Monte-Carlo runs use `trials` repetitions seeded
    from `seed`.
    """

    M: int
    k: float
    gamma: float
    N: float
    a: float
    b: float
    q: float | None = None
    tau: float | None = None
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        # every check, the domain types' included, raises "<field>: ..."
        try:
            MarketParams(M=self.M, k=self.k, gamma=self.gamma, N=self.N)
            UtilityCurve(a=self.a, b=self.b)
            require_positive("b", self.b)
            if self.trials < 1:
                raise ValueError(f"trials: must be >= 1, got {self.trials}")
            if self.q is not None and not 0 < self.q <= self.N:
                raise ValueError(f"q: must lie in (0, {self.N}], got {self.q}")
            if self.tau is not None:
                require_positive("tau", self.tau)
            if self.seed < 0:
                raise ValueError(f"seed: must be >= 0, got {self.seed}")
        except ValueError as exc:
            raise ValueError(f"scenario field {exc}") from None
        # performance plays the role of an accuracy-like rate even though the
        # curve itself is never clamped; flag scenarios that leave [0, 1]
        if data_utility(self.N, self.curve) > 1.0:
            warnings.warn(
                f"performance exceeds 1 at the maximum data size N={self.N}",
                stacklevel=2,
            )
        if self.a < 0.0:
            warnings.warn("performance is negative at data size 1", stacklevel=2)

    @property
    def market(self) -> MarketParams:
        return MarketParams(M=self.M, k=self.k, gamma=self.gamma, N=self.N)

    @property
    def curve(self) -> UtilityCurve:
        return UtilityCurve(a=self.a, b=self.b)

    def model(self, q: float | None = None) -> ValuationModel:
        """Valuation distribution at data size q (defaults to the configured q)."""
        size = self.q if q is None else q
        if size is None:
            raise ValueError("scenario field q: required but not set")
        return ValuationModel.from_market(self.curve, size, self.gamma)


# the scenario keys are the ScenarioConfig fields, int or float, required where
# they have no default; read once here, as type hints cost more than a parse
_KEY_TYPES = {name: int if hint is int else float
              for name, hint in get_type_hints(ScenarioConfig).items()}
_REQUIRED_KEYS = [field.name for field in fields(ScenarioConfig)
                  if field.default is MISSING]


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the `key = value` scenario format; `#` starts a comment."""
    parsed: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                f"scenario line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = (part.strip() for part in line.partition("="))
        if key in parsed:
            raise ValueError(f"scenario line {lineno}: duplicate field {key!r}")
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ValueError(f"scenario line {lineno}: unknown field {key!r}")
        try:
            parsed[key] = kind(value)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(
                f"scenario field {key}: expected {noun}, got {value!r}"
            ) from None
    missing = [name for name in _REQUIRED_KEYS if name not in parsed]
    if missing:
        raise ValueError(f"scenario is missing required fields: {', '.join(missing)}")
    return ScenarioConfig(**parsed)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario config file; errors name the file."""
    try:  # a file that is not UTF-8 raises UnicodeDecodeError, a ValueError
        return parse_scenario(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def taxi_scenario_path() -> Path:
    """Path of the bundled taxi trip-time benchmark scenario."""
    return Path(str(resources.files("datamarket").joinpath("data/scenario.paper.cfg")))


def taxi_scenario() -> ScenarioConfig:
    """The bundled taxi trip-time benchmark scenario."""
    return load_scenario(taxi_scenario_path())
