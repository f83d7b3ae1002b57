from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacknash import (DEFAULT_PARAMS, NonpositiveInput, NonpositivePremium,
                       PremiumPair, ReinsurerSide, cession_partials,
                       insurer_response, phi, phi_partials, phi_prime,
                       reinsurer_side)
from stacknash.sensitivity import _phi_parameter_partial

from conftest import random_params, simplex_grid

positive = st.floats(min_value=1e-2, max_value=1e3)


# -- insurer response ---------------------------------------------------------

def test_insurer_response_frozen_value():
    # direct evaluation; cross-checked by the simplex grid oracle below
    p = insurer_response(5.0, PremiumPair(4.0, 6.0))
    assert p.p1 == pytest.approx(30.0 / 98.0, rel=1e-15)
    assert p.p2 == pytest.approx(20.0 / 98.0, rel=1e-15)


def test_insurer_response_symmetric_premiums():
    p = insurer_response(5.0, PremiumPair(1.0, 1.0))
    assert p.p1 == pytest.approx(5.0 / 12.0, rel=1e-15)
    assert p.p2 == p.p1


def test_insurer_response_large_theta1_vanishes():
    p = insurer_response(5.0, PremiumPair(1e12, 6.0))
    assert p.p1 < 1e-10


def test_insurer_response_rejects_nonpositive_premium():
    with pytest.raises(NonpositivePremium):
        insurer_response(5.0, PremiumPair(0.0, 6.0))


@given(delta0=positive, theta1=positive, theta2=positive)
def test_insurer_response_is_strictly_interior(delta0, theta1, theta2):
    p = insurer_response(delta0, PremiumPair(theta1, theta2))
    assert p.p1 > 0 and p.p2 > 0
    assert p.p1 + p.p2 < 1


def test_insurer_response_maximizes_gaussian_utility(rng):
    # grid oracle: no simplex point at resolution 1e-3 scores higher
    from stacknash.mcsim import _utility, insurer_terminal_moments

    p1, p2 = simplex_grid(1e-3)
    for _ in range(100):
        params = random_params(rng)
        theta = PremiumPair(*rng.uniform(0.05, 10.0, 2))
        best = insurer_response(params.delta0, theta)
        mean, var = insurer_terminal_moments(params, theta, p1, p2)
        grid_best = _utility(params.delta0, mean, var).max()
        mean, var = insurer_terminal_moments(params, theta, best.p1, best.p2)
        assert grid_best <= _utility(params.delta0, mean, var)


# -- phi ----------------------------------------------------------------------

SIDE = ReinsurerSide(own_delta=4.0, rival_weight=0.7, delta0=5.0)


def test_phi_frozen_value():
    assert phi(SIDE, 1.0) == pytest.approx(47.0 / 43.4, rel=1e-15)


def test_phi_vanishes_at_origin():
    assert phi(SIDE, 1e-12) < 1e-11


def test_phi_zero_weight_reduced_form():
    side = ReinsurerSide(own_delta=4.0, rival_weight=0.0, delta0=5.0)
    assert phi(side, 0.0) == pytest.approx(4.0)  # limit value own_delta
    assert phi(side, 2.0) == pytest.approx((13.0 * 2 + 20.0) / 9.0, rel=1e-15)


def test_phi_zero_weight_accurate_on_flat_tail():
    # large delta0, small own_delta: phi sits just above own_delta while x is
    # small and near delta0/2 once x is large; exact rational reference
    d0, di = 1e6, 0.01
    side = ReinsurerSide(own_delta=di, rival_weight=0.0, delta0=d0)
    for x in (1e-6, 0.01, 70.7, 1e4, 1e9):
        fx, f0, fi = Fraction(x), Fraction(d0), Fraction(di)
        exact = fi + f0 * fx / (2 * fx + f0)
        assert abs(Fraction(phi(side, x)) - exact) <= 4e-16 * exact


def test_phi_asymptote():
    assert phi(SIDE, 1e8) == pytest.approx(5.0 / 2 + 4.0, rel=1e-6)


def test_phi_rejects_nonpositive_input():
    with pytest.raises(NonpositiveInput):
        phi(SIDE, 0.0)
    with pytest.raises(NonpositiveInput):
        phi(ReinsurerSide(4.0, 0.0, 5.0), -1.0)


@pytest.mark.parametrize("weight, outside", [(0.7, 0.0), (0.0, -1.0)],
                         ids=["positive-weight", "zero-weight"])
def test_phi_checks_every_array_entry(weight, outside):
    # one entry outside the domain rejects the whole array; numpy scalars
    # and 0-d arrays are accepted like floats
    side = ReinsurerSide(own_delta=4.0, rival_weight=weight, delta0=5.0)
    for f in (phi, phi_prime):
        with pytest.raises(NonpositiveInput):
            f(side, np.array([1.0, outside, 2.0]))
        with pytest.raises(NonpositiveInput):
            f(side, np.array([[1.0, 2.0], [3.0, outside]]))
        value = pytest.approx(f(side, 1.5), rel=1e-15)
        assert f(side, np.float64(1.5)) == value
        assert f(side, np.array(1.5)) == value
        assert f(side, np.array([0.5, 1.5]))[1] == value


@given(x=st.floats(min_value=1e-3, max_value=1e3),
       bump=st.floats(min_value=1e-3, max_value=10.0),
       own=positive, w=st.floats(min_value=0.0, max_value=5.0), d0=positive)
@settings(max_examples=200)
@example(x=573.25, bump=0.001, own=573.0, w=5e-324, d0=0.01)
@example(x=1000.0, bump=0.001, own=464.0, w=2.4203775580852557e-142,
         d0=0.015625)
def test_phi_increasing_and_concave(x, bump, own, w, d0):
    side = ReinsurerSide(own, w, d0)
    x1, x2, x3 = x, x + bump, x + 2 * bump
    y1, y2, y3 = phi(side, x1), phi(side, x2), phi(side, x3)
    # weak inequalities up to rounding: on the flat tail the true increment
    # and curvature fall below double-precision cancellation noise
    noise = 64.0 * np.finfo(float).eps * abs(y2)
    assert y2 >= y1
    assert (y3 - y2) - (y2 - y1) < noise


def test_phi_strictly_increasing_on_moderate_domain(rng):
    for _ in range(200):
        side = ReinsurerSide(rng.uniform(0.5, 10), rng.uniform(0.0, 2),
                             rng.uniform(0.5, 10))
        x = rng.uniform(0.05, 20)
        assert phi(side, x + 1e-4) > phi(side, x)
        assert phi_prime(side, x) > 0


def _exact_phi_and_slope(side, x):
    """phi = N/D and phi' = (N'D - ND')/D**2 in exact rational arithmetic."""
    d0, di, w, x = map(Fraction, (side.delta0, side.own_delta,
                                  side.rival_weight, x))
    a, b = d0 + 2 * di, (1 + w) * d0 * di
    c1, c0 = (1 + 2 * w) * d0 + 2 * w * di, w * (1 + w) * d0 * di
    num, den = a * x * x + b * x, 2 * x * x + c1 * x + c0
    slope = ((2 * a * x + b) * den - num * (4 * x + c1)) / (den * den)
    return num / den, slope


def test_phi_and_phi_prime_match_exact_rationals(rng):
    # log-uniform delta in [1e-6, 1e8], rival weight 0 or in [1e-8, 1e3],
    # x in [1e-12, 1e9]
    for _ in range(500):
        d0, di = 10.0 ** rng.uniform(-6.0, 8.0, 2)
        w = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-8.0, 3.0)
        x = 10.0 ** rng.uniform(-12.0, 9.0)
        side = ReinsurerSide(float(di), float(w), float(d0))
        value, slope = _exact_phi_and_slope(side, float(x))
        assert abs(Fraction(phi(side, float(x))) - value) <= 1e-15 * value
        assert abs(Fraction(phi_prime(side, float(x))) - slope) \
            <= 2e-15 * slope


def test_phi_and_phi_prime_where_a_squared_ratio_overflows():
    # phi/x = 1e160, so (phi/x)**2 leaves the float range, while phi = 1 and
    # phi' = (1 + w)*(d0*phi/(a*x + b))**2 + w*(phi/x)**2 is about 1e120
    side, x = ReinsurerSide(1.0, 1e-200, 1.0), 1e-160
    value, slope = _exact_phi_and_slope(side, x)
    assert phi(side, x) == 1.0
    assert abs(Fraction(phi_prime(side, x)) - slope) <= 2e-15 * slope


# -- derivatives --------------------------------------------------------------

def _fd(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_phi_prime_limits():
    assert phi_prime(SIDE, 1e-9) == pytest.approx(1.0 / 0.7, rel=1e-6)
    assert phi_prime(SIDE, 1e10) < 1e-9


def test_phi_prime_matches_finite_difference_at_example():
    fd = _fd(lambda x: phi(SIDE, x), 1.0, 1e-6)
    assert phi_prime(SIDE, 1.0) == pytest.approx(fd, rel=1e-6)


def test_phi_partials_zero_components_exact():
    # phi_i contains neither the rival's risk aversion nor lambda_i
    side1 = reinsurer_side(DEFAULT_PARAMS, 1)
    side2 = reinsurer_side(DEFAULT_PARAMS, 2)
    for x in (0.5, 1.0, 3.0):
        assert _phi_parameter_partial(side1, "delta2", x) == 0.0
        assert _phi_parameter_partial(side1, "lambda1", x) == 0.0
        assert _phi_parameter_partial(side2, "delta1", x) == 0.0
        assert _phi_parameter_partial(side2, "lambda2", x) == 0.0
        assert _phi_parameter_partial(side1, "lambda2", x) != 0.0
        assert _phi_parameter_partial(side2, "lambda1", x) != 0.0


def test_phi_partial_delta0_frozen_value():
    ps = phi_partials(SIDE, 1.0)
    assert ps.d_delta0 == pytest.approx(2.0 / 43.4 ** 2, rel=1e-15)


def test_derivatives_match_finite_differences_on_random_draws(rng):
    # 1000 draws, h = 1e-6 * max(1, x), rel tol 1e-5 with an absolute floor
    # of 1e-10 for derivatives so small that finite-difference cancellation
    # noise exceeds any relative target
    for _ in range(1000):
        own, d0 = rng.uniform(0.5, 10.0, 2)
        w = rng.uniform(0.0, 2.0)
        x = rng.uniform(0.05, 20.0)
        side = ReinsurerSide(own, w, d0)
        h = 1e-6 * max(1.0, x)
        assert phi_prime(side, x) == pytest.approx(
            _fd(lambda t: phi(side, t), x, h), rel=1e-5, abs=1e-10)
        ps = phi_partials(side, x)
        assert ps.d_delta0 == pytest.approx(
            _fd(lambda d: phi(ReinsurerSide(own, w, d), x), d0, h),
            rel=1e-5, abs=1e-10)
        assert ps.d_delta_own == pytest.approx(
            _fd(lambda d: phi(ReinsurerSide(d, w, d0), x), own, h),
            rel=1e-5, abs=1e-10)
        if w > 1e-3:
            assert ps.d_lambda_rival == pytest.approx(
                _fd(lambda v: phi(ReinsurerSide(own, v, d0), x), w, h),
                rel=1e-5, abs=1e-10)


def test_phi_partial_signs(rng):
    for _ in range(200):
        side = ReinsurerSide(rng.uniform(0.5, 10), rng.uniform(0.01, 2),
                             rng.uniform(0.5, 10))
        ps = phi_partials(side, rng.uniform(0.05, 20))
        assert ps.d_delta0 > 0
        assert ps.d_delta_own > 0
        assert ps.d_lambda_rival < 0


# -- cession partials ---------------------------------------------------------

def test_cession_partials_frozen_value():
    cp = cession_partials(5.0, PremiumPair(4.0, 6.0))
    assert cp.dp1_delta0 == pytest.approx(2.0 * 4 * 36 / 98.0 ** 2, rel=1e-15)


def test_cession_partials_signs(rng):
    for _ in range(200):
        d0 = rng.uniform(0.5, 10)
        cp = cession_partials(d0, PremiumPair(*rng.uniform(0.05, 10, 2)))
        assert cp.dp1_delta0 > 0 and cp.dp2_delta0 > 0
        assert cp.dp1_theta1 < 0 and cp.dp2_theta2 < 0
        assert cp.dp1_theta2 > 0 and cp.dp2_theta1 > 0


def test_cession_partials_cross_symmetry():
    cp = cession_partials(3.7, PremiumPair(2.5, 2.5))
    assert cp.dp1_theta2 == pytest.approx(cp.dp2_theta1, rel=1e-15)


def test_cession_partials_match_finite_differences():
    d0, theta = 5.0, PremiumPair(4.0, 6.0)
    cp = cession_partials(d0, theta)
    h = 1e-6
    assert cp.dp1_delta0 == pytest.approx(
        _fd(lambda d: insurer_response(d, theta).p1, d0, h), rel=1e-6)
    assert cp.dp1_theta1 == pytest.approx(
        _fd(lambda t: insurer_response(d0, PremiumPair(t, 6.0)).p1, 4.0, h), rel=1e-6)
    assert cp.dp2_theta2 == pytest.approx(
        _fd(lambda t: insurer_response(d0, PremiumPair(4.0, t)).p2, 6.0, h), rel=1e-6)


def test_reinsurer_side_maps_rival_lambda():
    side1 = reinsurer_side(DEFAULT_PARAMS, 1)
    side2 = reinsurer_side(DEFAULT_PARAMS, 2)
    assert side1.rival_weight == DEFAULT_PARAMS.lambda2
    assert side2.rival_weight == DEFAULT_PARAMS.lambda1
    with pytest.raises(ValueError):
        reinsurer_side(DEFAULT_PARAMS, 3)
