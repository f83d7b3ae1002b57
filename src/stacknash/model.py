"""Domain types, parameter validation, and JSON (de)serialization.

All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class ModelParams:
    """All scalar inputs of the game.

    ``delta0`` is the insurer's absolute risk aversion, ``delta1``/``delta2``
    the reinsurers', and ``lambda1``/``lambda2`` the competition degrees.
    The risk-process constants (``mu``, ``sigma``, ``c``, ``horizon``, initial
    surpluses) do not affect the equilibrium strategies; the defaults satisfy
    mu > 3*sigma and keep Monte Carlo variance small.
    """

    delta0: float
    delta1: float
    delta2: float
    lambda1: float
    lambda2: float
    mu: float = 4.0
    sigma: float = 1.0
    c: float = 5.0
    horizon: float = 1.0
    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0


#: Default behavioral parameters used throughout the numerical study.
DEFAULT_PARAMS = ModelParams(delta0=5.0, delta1=4.0, delta2=6.0,
                             lambda1=0.3, lambda2=0.7)


@dataclass(frozen=True)
class PremiumPair:
    """A pair of constant variance-loading factors."""

    theta1: float
    theta2: float


@dataclass(frozen=True)
class CessionPair:
    """A pair of constant ceded proportions, each in [0,1] with sum in [0,1]."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError(f"ceded proportions must lie in [0,1]: {self}")
        if self.p1 + self.p2 > 1.0:
            raise ValueError(f"ceded proportions must sum to at most 1: {self}")


@dataclass(frozen=True)
class Equilibrium:
    """Solved equilibrium with value-function slopes and solver diagnostics.

    Value coefficients are stored as time slopes: f(t) = rate * (T - t).
    """

    theta_star: PremiumPair
    p_star: CessionPair
    residual: float
    f0_rate: float
    f1_rate: float
    f2_rate: float
    iterations: int


@dataclass(frozen=True)
class ValidationResult:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


class InvalidParams(ValueError):
    """Parameters that :func:`validate` rejects; ``errors`` lists why."""

    def __init__(self, errors: tuple[str, ...]):
        super().__init__("; ".join(errors))
        self.errors = errors


def validate(params: ModelParams) -> ValidationResult:
    """Check field invariants; returns errors and warnings, never raises.

    A violation of the standing assumption mu >= 3*sigma is reported as a
    warning rather than an error.
    """
    errors: list[str] = []
    warnings: list[str] = []

    for name in ("delta0", "delta1", "delta2", "mu", "sigma", "c", "horizon"):
        value = getattr(params, name)
        if not math.isfinite(value):
            errors.append(f"{name} must be finite")
        elif value <= 0.0:
            errors.append(f"{name} must be positive")
    for name in ("lambda1", "lambda2"):
        value = getattr(params, name)
        if not math.isfinite(value):
            errors.append(f"{name} must be finite")
        elif value < 0.0:
            errors.append(f"{name} must be nonnegative")
    for name in ("x0", "x1", "x2"):
        if not math.isfinite(getattr(params, name)):
            errors.append(f"{name} must be finite")

    if not errors and params.mu < 3.0 * params.sigma:
        warnings.append("mu < 3*sigma")

    return ValidationResult(errors=tuple(errors), warnings=tuple(warnings))


_REQUIRED_FIELDS = ("delta0", "delta1", "delta2", "lambda1", "lambda2")
_ALL_FIELDS = tuple(f.name for f in fields(ModelParams))


def params_to_json(params: ModelParams) -> str:
    """Render parameters as a JSON object with the canonical field names."""
    return json.dumps({name: getattr(params, name) for name in _ALL_FIELDS})


def params_from_json(text: str) -> ModelParams:
    """Parse a JSON object into ModelParams.

    Unknown fields are rejected; the five behavioral parameters are required,
    the risk-process constants fall back to the documented defaults.
    Round-trips bit-exactly with :func:`params_to_json` for finite doubles.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object of model parameters")
    unknown = set(obj) - set(_ALL_FIELDS)
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
    missing = [name for name in _REQUIRED_FIELDS if name not in obj]
    if missing:
        raise ValueError(f"missing required fields: {', '.join(missing)}")
    for name, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {name} must be a number")
    return ModelParams(**{k: float(v) for k, v in obj.items()})
