"""Existence gating and fixed-point solving for the equilibrium loadings.

The 2-D fixed point (t1, t2) = (phi1(t2), phi2(t1)) is collapsed to the scalar
root of g(t) = phi_own(phi_rival(t)) - t, concave since phi1, phi2 are
increasing and concave, with g' < 0 from its one root on. Newton's method from
the right (the asymptote delta_own + delta0/2 of phi_own) thus needs no
bracket: no tangent falls below g, so the iterates decrease to the root and
never overshoot it. t is t1, or t2 when lambda1 = 0: phi2 is then at least
delta2, so its root lies near that start, while phi1 tends to 0 at 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace

from . import valuation
from .bestresponse import _phi_and_slope, insurer_response, phi, reinsurer_side
from .model import (Equilibrium, InvalidParams, ModelParams, PremiumPair,
                    validate)


class NoEquilibrium(RuntimeError):
    """Raised when lambda1*lambda2 >= 1 (no equilibrium exists)."""


class SolverFailure(RuntimeError):
    """Newton did not converge, or the relative residual missed tolerance."""


_TOLERANCE = 1e-12  # largest accepted relative fixed-point residual
_MAX_ITERATIONS = 200


class ExistenceVerdict(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"


def existence(lambda1: float, lambda2: float) -> ExistenceVerdict:
    """An equilibrium exists if and only if lambda1*lambda2 < 1."""
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("competition degrees must be nonnegative")
    if lambda1 * lambda2 < 1.0:
        return ExistenceVerdict.EXISTS
    return ExistenceVerdict.NOT_EXISTS


def _closed_form_zero_lambda(params: ModelParams) -> PremiumPair:
    """Exact equilibrium loadings when both competition degrees vanish."""
    d0, d1, d2 = params.delta0, params.delta1, params.delta2
    s = d0 * d1 + d0 * d2 + d1 * d2
    t1 = 0.5 * d1 + 0.5 * math.sqrt((d0 + d1) / (d0 + d2) * s)
    t2 = 0.5 * d2 + 0.5 * math.sqrt((d0 + d2) / (d0 + d1) * s)
    return PremiumPair(theta1=t1, theta2=t2)


def _gaps(side1, side2, theta: PremiumPair) -> tuple[float, float]:
    return (abs(theta.theta1 - phi(side1, theta.theta2)),
            abs(theta.theta2 - phi(side2, theta.theta1)))


def residual(params: ModelParams, theta: PremiumPair) -> float:
    """Absolute fixed-point defect |t1 - phi1(t2)| + |t2 - phi2(t1)|."""
    return sum(_gaps(reinsurer_side(params, 1), reinsurer_side(params, 2),
                     theta))


def solve(params: ModelParams) -> Equilibrium:
    """Solve for the unique equilibrium of the two-layer game.

    Raises InvalidParams when :func:`validate` reports an error,
    NoEquilibrium when lambda1*lambda2 >= 1, and SolverFailure if Newton's
    method needs more than _MAX_ITERATIONS steps or the scale-free relative
    residual |t1 - phi1(t2)|/t1 + |t2 - phi2(t1)|/t2 exceeds _TOLERANCE
    (``residual`` holds the absolute one). ``iterations`` counts the Newton
    steps computed, including the last one, which no longer lowers the loading.
    The loadings depend only on the five behavioral parameters; mu, sigma,
    c, horizon and initial surpluses enter the value rates only.
    """
    checked = validate(params)
    if not checked.ok:
        raise InvalidParams(checked.errors)
    if existence(params.lambda1, params.lambda2) is not ExistenceVerdict.EXISTS:
        raise NoEquilibrium("no equilibrium: lambda1*lambda2 >= 1")

    side1 = reinsurer_side(params, 1)
    side2 = reinsurer_side(params, 2)
    if params.lambda1 == 0.0 and params.lambda2 == 0.0:
        theta = _closed_form_zero_lambda(params)
        iterations = 0
    else:
        own, rival = (side2, side1) if params.lambda1 == 0.0 else (side1, side2)
        t_own = own.own_delta + params.delta0 / 2.0  # asymptote of phi: g < 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            t_rival, rival_slope = _phi_and_slope(rival, t_own)
            image, own_slope = _phi_and_slope(own, t_rival)  # phi_own(t_rival)
            slope = own_slope * rival_slope - 1.0
            # right of the root g' < 0 and Newton lowers t_own within
            # (0, t_own); where rounding breaks either, it is the root
            gap = image - t_own
            lower = t_own - gap / slope if slope < 0.0 else t_own
            if not 0.0 < lower < t_own:
                break
            t_own = lower
        else:
            raise SolverFailure(
                f"no convergence in {_MAX_ITERATIONS} Newton steps")
        theta = PremiumPair(*own.own_rival(t_own, t_rival))

    gap1, gap2 = _gaps(side1, side2, theta)
    relative = gap1 / theta.theta1 + gap2 / theta.theta2
    if relative > _TOLERANCE:
        raise SolverFailure(f"relative fixed-point residual {relative:.3e} "
                            f"exceeds tolerance {_TOLERANCE:.3e}")

    p_star = insurer_response(params.delta0, theta)
    return Equilibrium(
        theta_star=theta,
        p_star=p_star,
        residual=gap1 + gap2,
        f0_rate=valuation.f0_rate(params, theta),
        f1_rate=valuation.reinsurer_rate(params, theta, 1),
        f2_rate=valuation.reinsurer_rate(params, theta, 2),
        iterations=iterations,
    )


def limit_profile(params: ModelParams, epsilons: list[float]
                  ) -> list[tuple[float, float, float, float]]:
    """Equilibria along the existence boundary: lambda2 = (1 - eps) / lambda1.

    Returns rows (eps, theta1*, theta2*, p1* + p2*). As eps decreases toward 0
    both loadings shrink to zero and total coverage approaches full insurance.
    """
    if params.lambda1 <= 0:
        raise ValueError("limit_profile requires lambda1 > 0")
    rows = []
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {eps}")
        eq = solve(replace(params, lambda2=(1.0 - eps) / params.lambda1))
        rows.append((eps, eq.theta_star.theta1, eq.theta_star.theta2,
                     eq.p_star.p1 + eq.p_star.p2))
    return rows
