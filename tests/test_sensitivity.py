import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

import stacknash.sensitivity
from stacknash import (DEFAULT_PARAMS, Method, ModelParams, analytic_report,
                       finite_difference_report, phi_partials, reinsurer_side,
                       solve, theta_sensitivity)
from stacknash.bestresponse import _slope_and_inelasticity
from stacknash.sensitivity import (DEFAULT_STEP, PARAMETERS,
                                   _phi_parameter_partial)

from conftest import random_params, wide_deltas, wide_lambdas

ULP = 2.0 ** -53  # unit roundoff of a double


def _agree(a: float, b: float, rel: float = 1e-5, floor: float = 1e-10) -> bool:
    # absolute floor covers derivatives that shrink to ~0 near the existence
    # boundary, where a pure relative criterion is unattainable for any
    # finite-difference step
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def test_theta_sensitivity_signs_at_defaults():
    eq = solve(DEFAULT_PARAMS)
    for parameter in ("delta0", "delta1", "delta2"):
        d1, d2 = theta_sensitivity(DEFAULT_PARAMS, eq, parameter)
        assert d1 > 0 and d2 > 0
    for parameter in ("lambda1", "lambda2"):
        d1, d2 = theta_sensitivity(DEFAULT_PARAMS, eq, parameter)
        assert d1 < 0 and d2 < 0


def test_cession_sensitivity_figure_level_signs():
    eq = solve(DEFAULT_PARAMS)
    # at the default parameters specifically; no global sign exists
    report = analytic_report(DEFAULT_PARAMS, eq, "delta0")
    assert report.d_p1 > 0 and report.d_p2 > 0
    report = analytic_report(DEFAULT_PARAMS, eq, "lambda2")
    assert report.d_p1 > 0 and report.d_p2 > 0


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_analytic_matches_finite_difference_at_defaults(parameter):
    eq = solve(DEFAULT_PARAMS)
    analytic = analytic_report(DEFAULT_PARAMS, eq, parameter)
    fd = finite_difference_report(DEFAULT_PARAMS, parameter)
    assert analytic.method is Method.ANALYTIC
    assert fd.method is Method.FINITE_DIFFERENCE
    assert _agree(analytic.d_theta1, fd.d_theta1)
    assert _agree(analytic.d_theta2, fd.d_theta2)
    assert _agree(analytic.d_p1, fd.d_p1)
    assert _agree(analytic.d_p2, fd.d_p2)


def test_analytic_matches_finite_difference_on_random_draws(rng):
    for _ in range(60):
        params = random_params(rng)
        eq = solve(params)
        for parameter in PARAMETERS:
            analytic = analytic_report(params, eq, parameter)
            fd = finite_difference_report(params, parameter)
            assert _agree(analytic.d_theta1, fd.d_theta1)
            assert _agree(analytic.d_theta2, fd.d_theta2)
            assert _agree(analytic.d_p1, fd.d_p1)
            assert _agree(analytic.d_p2, fd.d_p2)


def test_unknown_parameter_rejected():
    eq = solve(DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        theta_sensitivity(DEFAULT_PARAMS, eq, "sigma")
    with pytest.raises(ValueError):
        finite_difference_report(DEFAULT_PARAMS, "mu")


@pytest.mark.parametrize("parameter, positions", [
    ("delta0", [0, 1]), ("delta1", [0]), ("delta2", [1]), ("lambda1", [1]),
    ("lambda2", [0]),
])
def test_phi_partials_evaluated_only_where_phi_contains_the_parameter(
        parameter, positions, monkeypatch):
    # phi_i contains delta0, its own delta and its rival's lambda; its
    # partials in the other two are zero without an evaluation. positions:
    # the sides (0 for reinsurer 1, 1 for reinsurer 2) evaluated, in order
    calls = []

    def counted(side, x):
        calls.append(side.position)
        return phi_partials(side, x)

    monkeypatch.setattr(stacknash.sensitivity, "phi_partials", counted)
    analytic_report(DEFAULT_PARAMS, solve(DEFAULT_PARAMS), parameter)
    assert calls == positions


def _every_partial_then_lookup(side, parameter, x):
    """The partial selected after evaluating the whole PartialSet."""
    ps = phi_partials(side, x)
    own_delta, _ = side.own_rival("delta1", "delta2")
    _, rival_lambda = side.own_rival("lambda1", "lambda2")
    partials = {"delta0": ps.d_delta0, own_delta: ps.d_delta_own,
                rival_lambda: ps.d_lambda_rival}
    return partials.get(parameter, 0.0)


def test_partial_selection_is_bit_identical(rng, monkeypatch):
    # zero, one or both lambdas zero in turn; every partial and every report
    # cell has the bits of the evaluate-everything rule
    zeros = ((), ("lambda1",), ("lambda2",), ("lambda1", "lambda2"))
    for k in range(60):
        params = replace(random_params(rng),
                         **{name: 0.0 for name in zeros[k % 4]})
        eq = solve(params)
        thetas = (eq.theta_star.theta2, eq.theta_star.theta1)
        reports = []
        for parameter in PARAMETERS:
            for i, x in zip((1, 2), thetas):
                side = reinsurer_side(params, i)
                assert _phi_parameter_partial(side, parameter, x).hex() == \
                    _every_partial_then_lookup(side, parameter, x).hex()
            reports.append(analytic_report(params, eq, parameter))
        with monkeypatch.context() as patch:
            patch.setattr(stacknash.sensitivity, "_phi_parameter_partial",
                          _every_partial_then_lookup)
            for parameter, report in zip(PARAMETERS, reports):
                expected = analytic_report(params, eq, parameter)
                for name in ("d_theta1", "d_theta2", "d_p1", "d_p2"):
                    assert getattr(report, name).hex() == \
                        getattr(expected, name).hex()


@pytest.mark.parametrize("change", [
    {"lambda1": 0.0}, {"lambda2": 0.0}, {"delta0": 1e-6}, {"delta1": 1e8},
], ids=["lambda1-zero", "lambda2-zero", "delta0-tiny", "delta1-huge"])
def test_finite_differences_at_any_scale(change):
    # valid inputs where a stencil of absolute width 1e-5 would leave the
    # domain (lambda = 0, delta0 = 1e-6) or not resolve d_theta1 = 1.05e-14
    # (delta1 = 1e8). Both differences are second order, so the truncation
    # error is near DEFAULT_STEP**2 = 1e-10 relative (3.2e-10 seen at
    # lambda = 0; bound 1e-8). Each re-solved output is accurate to about an
    # ulp, which the difference divides by its step: at delta0 = 1e-6 and
    # delta1 = 1e8, where the derivative is small against the output, only
    # ulp(output)/step is resolvable (up to 0.4 of it seen, 9.1e-4
    # relative; bound 4 of it).
    params = replace(DEFAULT_PARAMS, **change)
    for parameter in PARAMETERS:
        base = getattr(params, parameter)
        step = DEFAULT_STEP * base if base > 0.0 else DEFAULT_STEP
        _assert_fd_meets_analytic(params, parameter, step)


def _assert_fd_meets_analytic(params, parameter, step):
    # each output's finite difference within 1e-8 relative of the analytic
    # value plus 4 ulps of the output over the step
    eq = solve(params)
    analytic = analytic_report(params, eq, parameter)
    fd = finite_difference_report(params, parameter)
    outputs = (eq.theta_star.theta1, eq.theta_star.theta2,
               eq.p_star.p1, eq.p_star.p2)
    for name, output in zip(("d_theta1", "d_theta2", "d_p1", "d_p2"),
                            outputs):
        a, b = getattr(analytic, name), getattr(fd, name)
        assert abs(a - b) <= 1e-8 * abs(a) + 4.0 * math.ulp(output) / step


@pytest.mark.parametrize("change, parameter, step", [
    ({"lambda1": 0.3, "lambda2": (1.0 - 1e-6) / 0.3}, "lambda1",
     DEFAULT_STEP * 0.3),
    ({"lambda1": 0.3, "lambda2": (1.0 - 1e-6) / 0.3}, "lambda2",
     DEFAULT_STEP * (1.0 - 1e-6) / 0.3),
    ({"lambda1": 0.0, "lambda2": 1e5}, "lambda1", DEFAULT_STEP / 1e5),
], ids=["eps-1e-6-lambda1", "eps-1e-6-lambda2", "lambda1-zero-lambda2-1e5"])
def test_finite_differences_next_to_boundary(change, parameter, step):
    # a central stencil of relative width DEFAULT_STEP at lambda1*lambda2 =
    # 1 - 1e-6, and a forward one of width 2*DEFAULT_STEP at lambda1 = 0 <
    # 1e5 = lambda2, would cross lambda1*lambda2 = 1. The one-sided
    # difference looks back from the first and takes 1/lambda2 as the scale
    # of the second; the bound is that of test_finite_differences_at_any_scale
    # (up to 0.08 of it seen at eps = 1e-6 and 0.53 at lambda2 = 1e5). The
    # delta differences there stay central and carry theta's forward error,
    # about kappa = 1e6 ulps
    _assert_fd_meets_analytic(replace(DEFAULT_PARAMS, **change), parameter,
                              step)


# 80-digit references at the double inputs: the root of phi1(phi2(t)) = t for
# the exact rational best responses by bisection, mpmath.diff of (theta, p)
# in the parameter, and kappa = 1/(1 - phi1'*phi2') at that root
@pytest.mark.parametrize("params, parameter, kappa, expected", [
    # lambda1*lambda2 = 1 - 1e-11
    (replace(DEFAULT_PARAMS, lambda2=3.3333333333), "lambda2",
     1.0000006574105828e11,
     (-0.37241379310995433, -1.241379310349392, 0.12487247500581421,
      -0.010283615588606836)),
    # lambda1*lambda2 = 1 - 1e-12
    (replace(DEFAULT_PARAMS, lambda1=1.0, lambda2=1.0 - 1e-12), "lambda1",
     1.0000221222097628e12,
     (-2.399999999999808, -2.400000000000288, 0.089999999999810404,
      0.38999999999973841)),
], ids=["eps-1e-11", "eps-1e-12"])
def test_sensitivities_next_to_boundary(params, parameter, kappa, expected):
    # the denominator is positive by construction, so every cell is finite.
    # d_theta meets the reference to the 12 digits a sweep prints (3.6 ulps
    # seen). d_p sums terms near 1/theta that cancel to O(1), so it carries
    # theta's forward error, about kappa ulps: up to 0.68*kappa*ULP seen,
    # bound 2*kappa*ULP
    report = analytic_report(params, solve(params), parameter)
    for value, ref in zip((report.d_theta1, report.d_theta2), expected[:2]):
        assert abs(value - ref) <= 1e-12 * abs(ref)
    for value, ref in zip((report.d_p1, report.d_p2), expected[2:]):
        assert abs(value - ref) <= 2.0 * kappa * ULP


def _exact_inelasticity(side, x):
    """1 - x*phi'(x)/phi(x) in exact rationals, from phi = N/D with
    N = x*(a*x + b): x*phi'/phi = x*N'/N - x*D'/D."""
    d0, di, w, x = map(Fraction, (side.delta0, side.own_delta,
                                  side.rival_weight, x))
    a, b = d0 + 2 * di, (1 + w) * d0 * di
    c1, c0 = (1 + 2 * w) * d0 + 2 * w * di, w * (1 + w) * d0 * di
    den = 2 * x * x + c1 * x + c0
    return 1 - (2 * a * x + b) / (a * x + b) + x * (4 * x + c1) / den


@given(deltas=wide_deltas(), lambdas=wide_lambdas())
@settings(max_examples=200, deadline=None)
def test_denominator_positive_and_accurate(deltas, lambdas):
    # at the returned theta, 1 - phi1'*phi2' = c1 + c2 - c1*c2 with
    # ci = 1 - e_i, each a product and sum of positive terms; c1*c2 is at
    # most half of c1 + c2. Worst seen over 40,000 draws of this domain:
    # 7.2 ulps relative to the exact rational value; bound 16
    assume(lambdas[0] * lambdas[1] < 1.0)
    params = ModelParams(*deltas, *lambdas)
    eq = solve(params)
    t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
    side1, side2 = reinsurer_side(params, 1), reinsurer_side(params, 2)
    g1, c1 = _slope_and_inelasticity(side1, t2)
    g2, c2 = _slope_and_inelasticity(side2, t1)
    e1, e2 = _exact_inelasticity(side1, t2), _exact_inelasticity(side2, t1)
    exact = e1 + e2 - e1 * e2
    denom = c1 + c2 - c1 * c2
    assert denom > 0.0
    assert abs(Fraction(denom) - exact) <= 16 * ULP * exact
    for parameter in PARAMETERS:
        # theta_sensitivity divides by the same denominator: its 16 ulps,
        # one for 1/denominator and one for the product
        d_t1, d_t2 = theta_sensitivity(params, eq, parameter)
        dphi1 = _phi_parameter_partial(side1, parameter, t2)
        dphi2 = _phi_parameter_partial(side2, parameter, t1)
        for d, num in ((d_t1, g1 * dphi2 + dphi1), (d_t2, g2 * dphi1 + dphi2)):
            assert abs(Fraction(d) * exact - Fraction(num)) \
                <= 18 * ULP * abs(Fraction(num))
        report = analytic_report(params, eq, parameter)
        assert all(map(math.isfinite, (report.d_theta1, report.d_theta2,
                                       report.d_p1, report.d_p2)))
