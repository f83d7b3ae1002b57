"""Closed-form value-function coefficients and equilibrium value functions.

For constant strategies every exponent coefficient is affine in time to
maturity, so a single per-unit-time rate characterizes it: f(t) = rate*(T-t).
"""

from __future__ import annotations

import math

from .bestresponse import (cession_denominator, check_loadings,
                           insurer_response, reinsurer_side)
from .model import Equilibrium, ModelParams, PremiumPair


def f0_rate(params: ModelParams, theta: PremiumPair) -> float:
    """Time slope of the insurer's value exponent under best-response cession.

    rate = d0 * (mu - c + d0 * sigma^2 * t1 * t2 / D).
    """
    check_loadings(theta)
    t1, t2 = theta.theta1, theta.theta2
    d0 = params.delta0
    ratio = d0 * params.sigma ** 2 * t1 * t2 / cession_denominator(d0, t1, t2)
    return d0 * (params.mu - params.c + ratio)


def reinsurer_rate(params: ModelParams, theta: PremiumPair, i: int) -> float:
    """Time slope of reinsurer i's value exponent at equilibrium loadings.

    Equals -d_i*m + d_i^2*s^2/2 for the drift m and diffusion s of the
    relative performance under the insurer's responsive cession, which in
    closed form is

        sigma^2*d0^2*d_i*(t_j - l_j*t_i)/D^2 * [-t_i*t_j + d_i*(t_j - l_j*t_i)/2].
    """
    side = reinsurer_side(params, i)
    d0, di, lj = params.delta0, side.own_delta, side.rival_weight
    ti, tj = side.own_rival(theta.theta1, theta.theta2)
    gap = tj - lj * ti
    d_sq = cession_denominator(d0, theta.theta1, theta.theta2) ** 2
    return params.sigma ** 2 * d0 * d0 * di * gap / d_sq \
        * (-ti * tj + 0.5 * di * gap)


def value_insurer(params: ModelParams, eq: Equilibrium, t: float, x: float) -> float:
    """Insurer's equilibrium value -(1/d0)*exp(-d0*x + f0*(T-t)); negative,
    equal to -1/d0 at (t, x) = (T, 0), and -inf where exp overflows."""
    e = -params.delta0 * x + eq.f0_rate * (params.horizon - t)
    try:
        return -math.exp(e) / params.delta0
    except OverflowError:
        return -math.inf


def value_reinsurer(params: ModelParams, eq: Equilibrium, i: int,
                    t: float, y: float) -> float:
    """Reinsurer i's equilibrium value as a function of its relative
    performance y; -inf where exp overflows."""
    side = reinsurer_side(params, i)
    rate, _ = side.own_rival(eq.f1_rate, eq.f2_rate)
    e = -side.own_delta * y + rate * (params.horizon - t)
    try:
        return -math.exp(e) / side.own_delta
    except OverflowError:
        return -math.inf


def welfare_index(params: ModelParams, eq: Equilibrium, i: int) -> float:
    """Dimensionless welfare proxy for reinsurer i.

    Defined as the value rate stripped of the positive factor
    sigma^2*d0*d_i, so a larger index means lower reinsurer welfare.
    """
    side = reinsurer_side(params, i)
    rate, _ = side.own_rival(eq.f1_rate, eq.f2_rate)
    return rate / (params.sigma ** 2 * params.delta0 * side.own_delta)


def premium_identity_gap(params: ModelParams, theta: PremiumPair) -> float:
    """Defect of the algebraic identity behind the insurer's value rate:

        sigma^2*(t1*p1^2 + t2*p2^2) + d0*sigma^2*(1-p1-p2)^2/2
            = d0*sigma^2*t1*t2/D

    with (p1, p2) the insurer's best response. Zero up to rounding.
    """
    p = insurer_response(params.delta0, theta)
    s2, d0 = params.sigma ** 2, params.delta0
    lhs = s2 * (theta.theta1 * p.p1 ** 2 + theta.theta2 * p.p2 ** 2) \
        + 0.5 * d0 * s2 * (1.0 - p.p1 - p.p2) ** 2
    rhs = d0 * s2 * theta.theta1 * theta.theta2 \
        / cession_denominator(d0, theta.theta1, theta.theta2)
    return lhs - rhs
