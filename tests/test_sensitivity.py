from dataclasses import replace

import pytest

from stacknash import (DEFAULT_PARAMS, DegenerateDenominator, Method,
                       analytic_report, finite_difference_report, solve,
                       theta_sensitivity)
from stacknash.sensitivity import PARAMETERS

from conftest import random_params


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


def test_degenerate_denominator_near_boundary():
    params = replace(DEFAULT_PARAMS, lambda1=1.0, lambda2=1.0 - 1e-12)
    eq = solve(params)
    with pytest.raises(DegenerateDenominator):
        theta_sensitivity(params, eq, "delta0")
