"""Closed-form best responses of all three players and their exact derivatives.

All functions are pure and accept either floats or numpy arrays for the
premium argument ``x``; the module itself does not import numpy.

Index convention: the weight appearing inside reinsurer i's best-response map
is the competitor's competition degree (lambda_j), because reinsurer i's
objective is its performance relative to lambda_j times the rival's.
:func:`reinsurer_side` encodes that mapping once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CessionPair, ModelParams, PremiumPair


class NonpositivePremium(ValueError):
    """A variance loading was not strictly positive."""


class NonpositiveInput(ValueError):
    """The best-response map was evaluated outside its domain."""


@dataclass(frozen=True)
class ReinsurerSide:
    """One reinsurer's view of the game: own risk aversion, the rival weight
    inside its best-response map, and the insurer's risk aversion."""

    own_delta: float
    rival_weight: float
    delta0: float
    position: int = 0  # index of this reinsurer in a (reinsurer 1, 2) pair
    y0: float = 0.0  # initial relative performance x_i - lambda_j*x_j

    def __post_init__(self):
        if self.own_delta <= 0 or self.delta0 <= 0:
            raise ValueError("risk aversions must be positive")
        if self.rival_weight < 0:
            raise ValueError("rival_weight must be nonnegative")

    def own_rival(self, first, second):
        """(own, rival) from a pair in reinsurer order (1, 2); self-inverse."""
        pair = (first, second)
        return pair[self.position], pair[1 - self.position]


def reinsurer_side(params: ModelParams, i: int) -> ReinsurerSide:
    """Side of reinsurer ``i`` (1 or 2); the rival weight is the *other*
    reinsurer's competition degree."""
    if i == 1:
        return ReinsurerSide(params.delta1, params.lambda2, params.delta0, 0,
                             params.x1 - params.lambda2 * params.x2)
    if i == 2:
        return ReinsurerSide(params.delta2, params.lambda1, params.delta0, 1,
                             params.x2 - params.lambda1 * params.x1)
    raise ValueError(f"reinsurer index must be 1 or 2, got {i}")


def cession_denominator(delta0, t1, t2):
    """D = d0*t1 + d0*t2 + 2*t1*t2, the insurer-response denominator."""
    return delta0 * t1 + delta0 * t2 + 2.0 * t1 * t2


def cession_shares(delta0, t1, t2):
    """The insurer's best response (d0*t2/D, d0*t1/D); scalar or array."""
    denom = cession_denominator(delta0, t1, t2)
    return delta0 * t2 / denom, delta0 * t1 / denom


def check_loadings(theta: PremiumPair) -> None:
    if theta.theta1 <= 0 or theta.theta2 <= 0:
        raise NonpositivePremium(f"premium loadings must be positive: {theta}")


def insurer_response(delta0: float, theta: PremiumPair) -> CessionPair:
    """The insurer's optimal ceded proportions (p1, p2) = cession_shares(...).

    p1, p2 > 0, and p1 + p2 < 1 in exact arithmetic, <= 1 in floating point:
    if the retained share 2*t1*t2/D is below rounding and the sum rounds above
    1, the smaller share is set to 1 minus the larger.
    """
    check_loadings(theta)
    p1, p2 = cession_shares(delta0, theta.theta1, theta.theta2)
    if p1 + p2 > 1.0:  # the larger share is >= 1/2, so 1 - it is exact
        p1, p2 = (1.0 - p2, p2) if p1 < p2 else (p1, 1.0 - p1)
    return CessionPair(p1=p1, p2=p2)


def _check_domain(side: ReinsurerSide, x) -> None:
    positive = side.rival_weight > 0.0
    outside = x <= 0.0 if positive else x < 0.0  # NaN passes
    if (outside if type(outside) is bool else outside.any()):
        raise NonpositiveInput("premium argument must be "
                               + ("positive" if positive else "nonnegative"))


def _phi_and_slope(side: ReinsurerSide, x):
    """(phi, phi') from one S, checked once: phi = 1/S in partial fractions,
    a = d0 + 2*di, b = (1 + w)*d0*di, S = 2/a + (1 + w)*d0**2/(a*(a*x + b))
    + w/x, without the w/x term at w = 0, where x = 0 is allowed; and
    phi' = -S'/S**2 = (1 + w)*(d0*phi/(a*x + b))**2 + w*(phi/x)**2."""
    _check_domain(side, x)
    d0, di, w = side.delta0, side.own_delta, side.rival_weight
    a = d0 + 2.0 * di
    ab = a * x + (1.0 + w) * (d0 * di)
    s = 2.0 / a + (1.0 + w) * d0 * d0 / (a * ab)
    value = 1.0 / (s + w / x if w else s)
    r, q = d0 * value / ab, (value / x if w else 0.0)
    try:  # ** (libm pow) fixes the last bits of every output
        return value, (1.0 + w) * r ** 2 + w * q ** 2
    except OverflowError:  # a float ** past 1.8e308: * gives inf, or (w*q)*q
        return value, (1.0 + w) * r * r + w * q * q


def _slope_and_inelasticity(side: ReinsurerSide, x):
    """(phi', 1 - e) with e = x*phi'/phi the elasticity of phi, from one
    evaluation: 1 - e = phi*(2/a + (1 + w)*d0**2*b/(a*(a*x + b)**2)), a sum
    of positive terms, at every x (the w/x terms of S and of x*S' cancel)."""
    value, slope = _phi_and_slope(side, x)
    d0, di, w = side.delta0, side.own_delta, side.rival_weight
    a, b = d0 + 2.0 * di, (1.0 + w) * (d0 * di)
    ab = a * x + b
    return slope, value * (2.0 / a + (1.0 + w) * d0 * d0 * b / (a * ab * ab))


def phi(side: ReinsurerSide, x):
    """Reinsurer's best-response loading given the rival's loading ``x``.

    Strictly increasing and strictly concave, with horizontal asymptote
    own_delta + delta0/2 (and value own_delta at x = 0 for a zero weight).
    One form, 1/S, for every rival weight (:func:`_phi_and_slope`): each term
    of S is positive and nonincreasing in x under rounding, so nothing
    cancels and the computed phi is nondecreasing in x, also at tiny weights.
    """
    return _phi_and_slope(side, x)[0]


def phi_prime(side: ReinsurerSide, x):
    """Exact derivative of :func:`phi`, -S'/S**2 =
    (1 + w)*(delta0*phi/(a*x + b))**2 + w*(phi/x)**2; strictly positive."""
    return _phi_and_slope(side, x)[1]


@dataclass(frozen=True)
class PartialSet:
    """Partial derivatives of phi in the behavioral parameters it contains.

    The partials in the rival's risk aversion and in the player's own
    competition degree are identically zero and therefore not stored.
    """

    d_delta0: float
    d_delta_own: float
    d_lambda_rival: float


def phi_partials(side: ReinsurerSide, x) -> PartialSet:
    """Closed-form parameter partials of :func:`phi` at fixed ``x``.

    Signs: d_delta0 > 0, d_delta_own > 0, d_lambda_rival < 0.
    """
    _check_domain(side, x)
    d0, di, w = side.delta0, side.own_delta, side.rival_weight
    den2 = (2.0 * x * x + ((1.0 + 2.0 * w) * d0 + 2.0 * w * di) * x
            + w * (1.0 + w) * d0 * di) ** 2
    d_d0 = 2.0 * x ** 4 / den2
    d_own = x * x * (d0 * (1.0 + w) + 2.0 * x) ** 2 / den2
    d_w = -(2.0 * (d0 * d0 + 2.0 * d0 * di + 2.0 * di * di) * x ** 3
            + 2.0 * d0 * di * (d0 + 2.0 * di) * (1.0 + w) * x * x
            + d0 * d0 * di * di * (1.0 + w) ** 2 * x) / den2
    return PartialSet(d_delta0=d_d0, d_delta_own=d_own, d_lambda_rival=d_w)


@dataclass(frozen=True)
class CessionPartialSet:
    """Partials of the insurer's response (p1, p2) in (delta0, theta1, theta2)."""

    dp1_delta0: float
    dp1_theta1: float
    dp1_theta2: float
    dp2_delta0: float
    dp2_theta1: float
    dp2_theta2: float


def cession_partials(delta0: float, theta: PremiumPair) -> CessionPartialSet:
    """Closed-form partials of the insurer response.

    For each i: d p_i / d delta0 > 0, d p_i / d theta_i < 0,
    d p_i / d theta_j > 0.
    """
    check_loadings(theta)
    t1, t2 = theta.theta1, theta.theta2
    den2 = cession_denominator(delta0, t1, t2) ** 2
    return CessionPartialSet(
        dp1_delta0=2.0 * t1 * t2 * t2 / den2,
        dp1_theta1=-delta0 * t2 * (delta0 + 2.0 * t2) / den2,
        dp1_theta2=delta0 * delta0 * t1 / den2,
        dp2_delta0=2.0 * t2 * t1 * t1 / den2,
        dp2_theta1=delta0 * delta0 * t2 / den2,
        dp2_theta2=-delta0 * t1 * (delta0 + 2.0 * t1) / den2,
    )
