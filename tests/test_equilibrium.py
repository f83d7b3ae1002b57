import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from stacknash import (DEFAULT_PARAMS, ExistenceVerdict, InvalidParams,
                       ModelParams, NoEquilibrium, PremiumPair, SolverFailure,
                       equilibrium, existence, limit_profile, phi,
                       reinsurer_side, residual, solve)
from stacknash.equilibrium import _MAX_ITERATIONS, _TOLERANCE

from conftest import random_params, wide_deltas, wide_lambdas

# Frozen by the pre-build oracle: grid scan of g(t1) = phi1(phi2(t1)) - t1 at
# step 1e-6 on [1e-6, delta1 + delta0/2], bisected to convergence.
THETA1_DEFAULT = 2.7249757232211067
THETA2_DEFAULT = 3.997672206253495


@pytest.mark.parametrize("l1,l2,verdict", [
    (0.3, 0.7, ExistenceVerdict.EXISTS),
    (1.0, 1.0, ExistenceVerdict.NOT_EXISTS),
    (0.0, 5.0, ExistenceVerdict.EXISTS),
    (0.5, 2.0, ExistenceVerdict.NOT_EXISTS),
    (0.0, 0.0, ExistenceVerdict.EXISTS),
])
def test_existence_gate(l1, l2, verdict):
    assert existence(l1, l2) is verdict


def test_solve_refuses_without_equilibrium():
    with pytest.raises(NoEquilibrium):
        solve(replace(DEFAULT_PARAMS, lambda1=1.0, lambda2=1.0))


def test_default_equilibrium_matches_oracle():
    eq = solve(DEFAULT_PARAMS)
    assert eq.theta_star.theta1 == pytest.approx(THETA1_DEFAULT, abs=1e-10)
    assert eq.theta_star.theta2 == pytest.approx(THETA2_DEFAULT, abs=1e-10)
    assert eq.residual <= 1e-10
    assert eq.p_star.p1 + eq.p_star.p2 < 1.0


def test_zero_lambda_closed_form():
    eq = solve(replace(DEFAULT_PARAMS, lambda1=0.0, lambda2=0.0))
    t1 = 2.0 + 0.5 * math.sqrt(9.0 / 11.0 * 74.0)
    t2 = 3.0 + 0.5 * math.sqrt(11.0 / 9.0 * 74.0)
    assert eq.theta_star.theta1 == pytest.approx(t1, abs=1e-10)
    assert eq.theta_star.theta2 == pytest.approx(t2, abs=1e-10)
    assert eq.iterations == 0


def test_zero_lambda_equal_deltas():
    delta = 3.4
    params = ModelParams(delta, delta, delta, 0.0, 0.0)
    eq = solve(params)
    expected = delta * (1.0 + math.sqrt(3.0)) / 2.0
    assert eq.theta_star.theta1 == pytest.approx(expected, rel=1e-12)
    assert eq.theta_star.theta2 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("l1,l2", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)])
def test_zero_lambda_large_delta0_solves(l1, l2):
    # delta0 = 1e6 and own deltas 0.01: phi at a zero rival weight must stay
    # accurate to far below the residual tolerance
    params = ModelParams(1e6, 0.01, 0.01, l1, l2)
    eq = solve(params)
    assert eq.residual <= _TOLERANCE
    if l1 == l2 == 0.0:
        # closed form with d1 = d2 = d: t = d/2 + sqrt(d0*d*2 + d*d)/2
        expected = 0.005 + 0.5 * math.sqrt(2e6 * 0.01 + 1e-4)
        assert eq.theta_star.theta1 == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("l1,l2", [(0.0, 5.0), (0.3, 0.0)])
def test_mixed_zero_lambda_fixed_point(l1, l2):
    params = replace(DEFAULT_PARAMS, lambda1=l1, lambda2=l2)
    eq = solve(params)
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    assert t1 == pytest.approx(phi(reinsurer_side(params, 1), t2), abs=1e-12)
    assert t2 == pytest.approx(phi(reinsurer_side(params, 2), t1), abs=1e-12)


def test_theta_bounded_by_phi_asymptote(rng):
    for _ in range(50):
        params = random_params(rng)
        eq = solve(params)
        assert eq.theta_star.theta1 < params.delta1 + params.delta0 / 2.0
        assert eq.theta_star.theta2 < params.delta2 + params.delta0 / 2.0


def test_unique_sign_change_on_bracket(rng):
    # grid scan at 1e-4 of the bracket width
    for _ in range(200):
        params = random_params(rng)
        side1, side2 = reinsurer_side(params, 1), reinsurer_side(params, 2)
        hi = params.delta1 + params.delta0 / 2.0 + 1.0
        xs = np.linspace(1e-12, hi, 10_000)
        gap = phi(side1, phi(side2, xs)) - xs
        assert np.count_nonzero(np.diff(np.sign(gap))) == 1


@pytest.mark.parametrize("params", [
    replace(DEFAULT_PARAMS, lambda1=0.5, lambda2=2.0 - 1e-14),
    replace(DEFAULT_PARAMS, lambda1=0.3, lambda2=(1.0 - 1e-14) / 0.3),
    # near the root the computed g' rounds to >= 0; a Newton step there
    # would leave the domain or divide by zero
    ModelParams(26285.05833392219, 3571.0115187808997, 229.9979130637978,
                1.1047625033508903, 0.9051719233472054),
    ModelParams(0.00021988666998235814, 4.92295546885142,
                0.00133195221032591, 0.22785273972723652, 4.388799543060588),
])
def test_solves_at_existence_boundary(params):
    # lambda1*lambda2 = 1 - O(1e-15): loadings of order 1e-13 or less, below
    # any fixed bracket floor such as 1e-12
    eq = solve(params)
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    assert abs(t1 - phi(reinsurer_side(params, 1), t2)) / t1 <= 1e-12
    assert abs(t2 - phi(reinsurer_side(params, 2), t1)) / t2 <= 1e-12
    assert eq.iterations < _MAX_ITERATIONS


def test_solves_when_retained_share_is_below_rounding():
    # loadings ~1e-12 beside delta0 ~4e6: the retained share 2*t1*t2/D is
    # ~1e-19, so d0*t2/D + d0*t1/D rounds to 1 + 2**-52
    params = ModelParams(3796789.6165540735, 1992502.2883105574,
                         1.5974345324139584e-4, 0.2875352048276893,
                         3.4778349682258107)
    eq = solve(params)
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    assert abs(t1 - phi(reinsurer_side(params, 1), t2)) / t1 <= 1e-12
    assert eq.p_star.p1 + eq.p_star.p2 == 1.0


def _relative_residual(params, eq):
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    return (abs(t1 - phi(reinsurer_side(params, 1), t2)) / t1
            + abs(t2 - phi(reinsurer_side(params, 2), t1)) / t2)


@pytest.mark.parametrize("params", [
    # Newton path: loadings near 6e4, whose ulp (7.3e-12) exceeds an
    # absolute tolerance of 1e-12
    ModelParams(2217.496584096267, 2376827.4869209733, 192126.00953904912,
                0.7141153356666283, 0.9490005778963477),
    # closed form, loadings near 4.5e4
    ModelParams(86227.58908612342, 303.29022549271855, 8653.995513638143,
                0.0, 0.0),
])
def test_large_loadings_meet_relative_tolerance(params):
    assert _relative_residual(params, solve(params)) <= _TOLERANCE


def test_corner_grid_meets_relative_tolerance():
    # delta in {1e-6, 3e-3, 1, 7e4, 1e8}**3; lambda1*lambda2 = 1 - eps and
    # lambda1/lambda2 = r**2 at the ends and inside of their ranges
    deltas = (1e-6, 3e-3, 1.0, 7e4, 1e8)
    for d0, d1, d2 in itertools.product(deltas, repeat=3):
        for eps in (1e-15, 3e-13, 1e-8, 1e-3, 0.5, 0.999999):
            k = math.sqrt(1.0 - eps)
            for r in (1e-2, 0.3, 1.0, 7.0, 1e2):
                params = ModelParams(d0, d1, d2, k * r, k / r)
                assert _relative_residual(params, solve(params)) <= _TOLERANCE


@given(deltas=wide_deltas(), lambdas=wide_lambdas())
# lambda1 = 0 < lambda2 with delta0 << delta1: Newton on theta1, started
# orders of magnitude above the root, stepped to its left and stopped there
@example(deltas=(1.9303303151758863e-06, 12264837.599860784,
                 0.002769527950025365), lambdas=(0.0, 1.5285748235745633))
@settings(max_examples=200, deadline=None)
def test_solve_accurate_across_scales(deltas, lambdas):
    # delta log-uniform in [1e-6, 1e8]
    assume(lambdas[0] * lambdas[1] < 1.0)
    params = ModelParams(*deltas, *lambdas)
    eq = solve(params)
    assert _relative_residual(params, eq) <= _TOLERANCE
    assert eq.p_star.p1 + eq.p_star.p2 <= 1.0


@pytest.mark.parametrize("params, expected", [
    (DEFAULT_PARAMS, (2.724975723221107, 3.9976722062534957, 6)),
    (replace(DEFAULT_PARAMS, delta0=1.9303303151758863e-06,
             delta1=12264837.599860784, delta2=0.002769527950025365,
             lambda1=0.0, lambda2=1.5285748235745633),
     (0.0018124677695554176, 0.0027704926014921714, 2)),
    (replace(DEFAULT_PARAMS, lambda1=0.0, lambda2=0.0),
     (5.890547986641938, 7.755114205895702, 0)),
], ids=["newton-on-theta1", "newton-on-theta2", "closed-form"])
def test_solve_bits_on_every_path(params, expected):
    # exact loadings and step counts of each solver path; a change to any
    # bit is a change of the solver's arithmetic, not noise
    eq = solve(params)
    assert (eq.theta_star.theta1, eq.theta_star.theta2,
            eq.iterations) == expected


def test_residual_where_a_squared_ratio_overflows():
    # phi_i(x)/x is near 4e170 and 6e170: the slope's square (phi/x)**2 is
    # out of range, phi is not, and the defect is phi1 + phi2 = 4 + 6
    params = replace(DEFAULT_PARAMS, lambda1=1e-200, lambda2=1e-200)
    assert residual(params, PremiumPair(1e-170, 1e-170)) == 10.0


def test_newton_step_limit(monkeypatch):
    monkeypatch.setattr(equilibrium, "_MAX_ITERATIONS", 2)
    with pytest.raises(SolverFailure, match="2 Newton steps"):
        solve(DEFAULT_PARAMS)


def _oracle_draws(rng, count=200):
    """Seeded interior draws with the gap g and the bracket (tiny, asymptote
    of phi1) on which g changes sign."""
    for _ in range(count):
        params = random_params(rng)
        side1, side2 = reinsurer_side(params, 1), reinsurer_side(params, 2)

        def gap(t1):
            return phi(side1, phi(side2, t1)) - t1

        yield params, gap, (1e-12, params.delta1 + params.delta0 / 2.0)


def _assert_matches_root(params, root):
    eq = solve(params)
    theta2 = phi(reinsurer_side(params, 2), root)
    assert eq.theta_star.theta1 == pytest.approx(root, rel=1e-12)
    assert eq.theta_star.theta2 == pytest.approx(theta2, rel=1e-12)


def test_matches_scipy_brentq(rng):
    from scipy.optimize import brentq
    for params, gap, (lo, hi) in _oracle_draws(rng):
        root = brentq(gap, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        _assert_matches_root(params, root)


def test_matches_scipy_find_root(rng):
    # Chandrupatla's method; the residual gates are off so only the bracket
    # width stops it
    from scipy.optimize import elementwise
    for params, gap, bracket in _oracle_draws(rng):
        result = elementwise.find_root(
            gap, bracket, tolerances={"fatol": 0.0, "frtol": 0.0})
        assert result.success
        _assert_matches_root(params, float(result.x))


def test_symmetry():
    params = replace(DEFAULT_PARAMS, delta1=4.0, delta2=4.0,
                     lambda1=0.5, lambda2=0.5)
    eq = solve(params)
    tol = _TOLERANCE
    assert abs(eq.theta_star.theta1 - eq.theta_star.theta2) <= 10 * tol
    assert abs(eq.p_star.p1 - eq.p_star.p2) <= 10 * tol


def test_nuisance_invariance():
    base = solve(DEFAULT_PARAMS)
    other = solve(replace(DEFAULT_PARAMS, mu=9.0, sigma=2.5, c=0.5,
                          horizon=7.0, x0=3.0, x1=-1.0, x2=2.0))
    assert other.theta_star == base.theta_star
    assert other.p_star == base.p_star


def test_limit_profile_toward_full_competition():
    eps = [10.0 ** -k for k in range(1, 7)]
    rows = limit_profile(DEFAULT_PARAMS, eps)
    t1s = [r[1] for r in rows]
    t2s = [r[2] for r in rows]
    assert all(a > b for a, b in zip(t1s, t1s[1:]))
    assert all(a > b for a, b in zip(t2s, t2s[1:]))
    assert rows[-1][3] > 0.999


def test_limit_profile_midpoints_ordered():
    theta_half = limit_profile(DEFAULT_PARAMS, [0.5])[0][1]
    theta_quarter = limit_profile(DEFAULT_PARAMS, [0.25])[0][1]
    assert theta_quarter < theta_half


def test_limit_profile_input_checks():
    with pytest.raises(ValueError):
        limit_profile(replace(DEFAULT_PARAMS, lambda1=0.0), [0.5])
    with pytest.raises(ValueError):
        limit_profile(DEFAULT_PARAMS, [1.5])


def test_solve_rejects_nan_delta0():
    with pytest.raises(InvalidParams) as info:
        solve(replace(DEFAULT_PARAMS, delta0=math.nan))
    assert info.value.errors == ("delta0 must be finite",)


def test_solve_rejects_infinite_lambda():
    with pytest.raises(InvalidParams) as info:
        solve(replace(DEFAULT_PARAMS, lambda1=math.inf, lambda2=0.0))
    assert info.value.errors == ("lambda1 must be finite",)


def test_solve_accepts_validation_warnings():
    # mu < 3*sigma is a warning, not an error
    eq = solve(replace(DEFAULT_PARAMS, mu=1.0))
    assert eq.theta_star == solve(DEFAULT_PARAMS).theta_star
