"""Comparative statics of the equilibrium in the five behavioral parameters.

Analytic derivatives come from implicit differentiation of the fixed point;
finite-difference variants re-solve the equilibrium at perturbed parameters
and serve as an independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .bestresponse import (ReinsurerSide, cession_partials, phi_partials,
                           phi_prime, reinsurer_side)
from .equilibrium import solve
from .model import Equilibrium, ModelParams

PARAMETERS = ("delta0", "delta1", "delta2", "lambda1", "lambda2")

#: Central-difference step; balances truncation error against solver noise
#: at the solver's relative residual tolerance of 1e-12.
DEFAULT_STEP = 1e-5


class DegenerateDenominator(ArithmeticError):
    """The implicit-function denominator 1 - phi1'*phi2' is numerically zero,
    i.e. the parameters sit too close to the existence boundary."""


class Method(enum.Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite-difference"


@dataclass(frozen=True)
class SensitivityReport:
    parameter: str
    d_theta1: float
    d_theta2: float
    d_p1: float
    d_p2: float
    method: Method


def _phi_parameter_partial(side: ReinsurerSide, parameter: str,
                           x: float) -> float:
    """Partial of a reinsurer's best-response map in one behavioral
    parameter, at fixed argument x. Two of the five vanish identically."""
    ps = phi_partials(side, x)
    own_delta, _ = side.own_rival("delta1", "delta2")
    _, rival_lambda = side.own_rival("lambda1", "lambda2")
    partials = {"delta0": ps.d_delta0, own_delta: ps.d_delta_own,
                rival_lambda: ps.d_lambda_rival}
    return partials.get(parameter, 0.0)


def theta_sensitivity(params: ModelParams, eq: Equilibrium,
                      parameter: str) -> tuple[float, float]:
    """Analytic (d theta1*/dq, d theta2*/dq) via the implicit-function quotient.

    The shared denominator 1 - phi1'(t2*)*phi2'(t1*) is strictly positive at
    the fixed point whenever lambda1*lambda2 < 1.
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    side1, side2 = reinsurer_side(params, 1), reinsurer_side(params, 2)
    g1 = phi_prime(side1, t2)
    g2 = phi_prime(side2, t1)
    denom = 1.0 - g1 * g2
    if denom <= 1e-10:
        raise DegenerateDenominator(
            f"1 - phi1'*phi2' = {denom:.3e}; too close to the existence boundary")
    dphi1 = _phi_parameter_partial(side1, parameter, t2)
    dphi2 = _phi_parameter_partial(side2, parameter, t1)
    d_t1 = (g1 * dphi2 + dphi1) / denom
    d_t2 = (g2 * dphi1 + dphi2) / denom
    return d_t1, d_t2


def analytic_report(params: ModelParams, eq: Equilibrium,
                    parameter: str) -> SensitivityReport:
    """Analytic loading and (by the chain rule) cession sensitivities.

    No global sign holds for the cession derivatives d_p1, d_p2; the direct
    delta0 effect and the induced loading effects can pull in opposite
    directions.
    """
    d_t1, d_t2 = theta_sensitivity(params, eq, parameter)
    cp = cession_partials(params.delta0, eq.theta_star)
    direct1 = cp.dp1_delta0 if parameter == "delta0" else 0.0
    direct2 = cp.dp2_delta0 if parameter == "delta0" else 0.0
    d_p1 = direct1 + cp.dp1_theta1 * d_t1 + cp.dp1_theta2 * d_t2
    d_p2 = direct2 + cp.dp2_theta1 * d_t1 + cp.dp2_theta2 * d_t2
    return SensitivityReport(parameter, d_t1, d_t2, d_p1, d_p2, Method.ANALYTIC)


def finite_difference_report(params: ModelParams,
                             parameter: str) -> SensitivityReport:
    """Central differences of the re-solved equilibrium, step DEFAULT_STEP."""
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    base = getattr(params, parameter)
    hi = solve(replace(params, **{parameter: base + DEFAULT_STEP}))
    lo = solve(replace(params, **{parameter: base - DEFAULT_STEP}))
    scale = 1.0 / (2.0 * DEFAULT_STEP)
    return SensitivityReport(
        parameter,
        (hi.theta_star.theta1 - lo.theta_star.theta1) * scale,
        (hi.theta_star.theta2 - lo.theta_star.theta2) * scale,
        (hi.p_star.p1 - lo.p_star.p1) * scale,
        (hi.p_star.p2 - lo.p_star.p2) * scale,
        Method.FINITE_DIFFERENCE,
    )
