"""Comparative statics of the equilibrium in the five behavioral parameters.

Analytic derivatives come from implicit differentiation of the fixed point;
finite-difference variants re-solve the equilibrium at perturbed parameters
and serve as an independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .bestresponse import (ReinsurerSide, _slope_and_inelasticity,
                           cession_partials, phi_partials, reinsurer_side)
from .equilibrium import solve
from .model import Equilibrium, ModelParams

PARAMETERS = ("delta0", "delta1", "delta2", "lambda1", "lambda2")

#: Relative step of the finite differences (absolute at a zero parameter,
#: relative to 1/lambda_j at a zero lambda whose rival lambda_j exceeds 1);
#: truncation O(step**2) and rounding noise ulp(theta)/step, each near 10**-10.
DEFAULT_STEP = 1e-5


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


#: (side position, parameter) -> the PartialSet field of phi's partial in
#: it. phi_i contains delta0, its own delta and its rival's lambda; the
#: partials in the other two parameters vanish identically.
_PARTIAL_NAMES = {
    (0, "delta0"): "d_delta0", (0, "delta1"): "d_delta_own",
    (0, "lambda2"): "d_lambda_rival",
    (1, "delta0"): "d_delta0", (1, "delta2"): "d_delta_own",
    (1, "lambda1"): "d_lambda_rival",
}


def _phi_parameter_partial(side: ReinsurerSide, parameter: str,
                           x: float) -> float:
    """Partial of a reinsurer's best-response map in one behavioral
    parameter, at fixed argument x. Two of the five vanish identically."""
    name = _PARTIAL_NAMES.get((side.position, parameter))
    return 0.0 if name is None else getattr(phi_partials(side, x), name)


def theta_sensitivity(params: ModelParams, eq: Equilibrium,
                      parameter: str) -> tuple[float, float]:
    """Analytic (d theta1*/dq, d theta2*/dq) via the implicit-function quotient.

    The shared denominator 1 - phi1'(t2*)*phi2'(t1*) is c1 + c2 - c1*c2, with
    ci = 1 - (elasticity of phi_i) in (0, 1] a sum of positive terms, so it
    is positive as computed, also next to the existence boundary.
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    side1, side2 = reinsurer_side(params, 1), reinsurer_side(params, 2)
    g1, c1 = _slope_and_inelasticity(side1, t2)
    g2, c2 = _slope_and_inelasticity(side2, t1)
    kappa = 1.0 / (c1 + c2 - c1 * c2)
    dphi1 = _phi_parameter_partial(side1, parameter, t2)
    dphi2 = _phi_parameter_partial(side2, parameter, t1)
    d_t1 = (g1 * dphi2 + dphi1) * kappa
    d_t2 = (g2 * dphi1 + dphi2) * kappa
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
    """Second-order differences of the re-solved equilibrium: central with
    the relative step DEFAULT_STEP, else one-sided, (4f(h) - 3f(0) -
    f(2h))/(2h). One-sided backwards, h = -DEFAULT_STEP*q, where the central
    stencil would cross lambda1*lambda2 = 1; forwards at q = 0, with
    h = DEFAULT_STEP, or DEFAULT_STEP/lambda_j at a zero lambda whose rival
    lambda_j exceeds 1, so that 2*h*lambda_j < 1."""
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}")
    base = getattr(params, parameter)
    rival = {"lambda1": params.lambda2,
             "lambda2": params.lambda1}.get(parameter, 0.0)

    def outputs(value: float) -> tuple[float, float, float, float]:
        eq = solve(replace(params, **{parameter: value}))
        return (eq.theta_star.theta1, eq.theta_star.theta2,
                eq.p_star.p1, eq.p_star.p2)

    def one_sided(h: float) -> list[float]:
        at0, at1, at2 = outputs(base), outputs(base + h), outputs(base + 2.0 * h)
        return [(4.0 * f1 - 3.0 * f0 - f2) / (2.0 * h)
                for f0, f1, f2 in zip(at0, at1, at2)]

    step = DEFAULT_STEP * base
    if base == 0.0:
        slopes = one_sided(DEFAULT_STEP / max(1.0, rival))
    elif (base + step) * rival >= 1.0:
        slopes = one_sided(-step)
    else:
        hi, lo = outputs(base + step), outputs(base - step)
        slopes = [(u - v) / (2.0 * step) for u, v in zip(hi, lo)]
    return SensitivityReport(parameter, *slopes, Method.FINITE_DIFFERENCE)
