from dataclasses import replace

import numpy as np
import pytest

from stacknash import (DEFAULT_PARAMS, NonpositivePremium, PremiumPair,
                       f0_rate, premium_identity_gap, reinsurer_rate, solve,
                       value_insurer, value_reinsurer, welfare_index)
from stacknash.mcsim import (SimConfig, gaussian_utility_insurer,
                             gaussian_utility_reinsurer, simulate_utilities)

from conftest import random_params


def test_f0_rate_frozen_value():
    rate = f0_rate(DEFAULT_PARAMS, PremiumPair(1.0, 1.0))
    assert rate == pytest.approx(-35.0 / 12.0, rel=1e-15)


def test_f0_rate_vanishes_when_fair():
    params = replace(DEFAULT_PARAMS, c=DEFAULT_PARAMS.mu)
    assert abs(f0_rate(params, PremiumPair(1e-9, 1e-9))) < 1e-8


def test_f0_rate_rejects_nonpositive_premium():
    with pytest.raises(NonpositivePremium):
        f0_rate(DEFAULT_PARAMS, PremiumPair(-1.0, 1.0))


def test_f0_rate_equals_gaussian_moment_exponent():
    # -d0*m + d0^2*s^2/2 with (m, s) the drift/diffusion of X0 under the
    # best-response cession
    from stacknash import insurer_response

    theta = PremiumPair(1.0, 1.0)
    p = insurer_response(DEFAULT_PARAMS.delta0, theta)
    d0, s2 = DEFAULT_PARAMS.delta0, DEFAULT_PARAMS.sigma ** 2
    m = DEFAULT_PARAMS.c - DEFAULT_PARAMS.mu \
        - s2 * (theta.theta1 * p.p1 ** 2 + theta.theta2 * p.p2 ** 2)
    s_sq = s2 * (1.0 - p.p1 - p.p2) ** 2
    assert f0_rate(DEFAULT_PARAMS, theta) == pytest.approx(
        -d0 * m + 0.5 * d0 * d0 * s_sq, rel=1e-12)


def test_premium_identity_on_random_draws(rng):
    for _ in range(1000):
        params = random_params(rng)
        theta = PremiumPair(*rng.uniform(0.05, 10.0, 2))
        gap = premium_identity_gap(params, theta)
        rhs = params.delta0 * params.sigma ** 2 * theta.theta1 * theta.theta2
        assert abs(gap) <= 1e-12 * abs(rhs)


def test_fi_rate_matches_gaussian_oracle():
    eq = solve(DEFAULT_PARAMS)
    for i in (1, 2):
        di = DEFAULT_PARAMS.delta1 if i == 1 else DEFAULT_PARAMS.delta2
        oracle = gaussian_utility_reinsurer(DEFAULT_PARAMS, eq.theta_star, i)
        rate = reinsurer_rate(DEFAULT_PARAMS, eq.theta_star, i)
        # oracle = -(1/di) exp(rate * T) at y = 0
        implied = -np.exp(rate * DEFAULT_PARAMS.horizon) / di
        assert implied == pytest.approx(oracle, rel=1e-8)


def test_fi_rate_matches_gaussian_oracle_on_random_draws(rng):
    for _ in range(50):
        params = random_params(rng)
        eq = solve(params)
        for i in (1, 2):
            closed = value_reinsurer(params, eq, i, 0.0, 0.0)
            oracle = gaussian_utility_reinsurer(params, eq.theta_star, i)
            assert closed == pytest.approx(oracle, rel=1e-8)


def test_fi_rate_zero_when_gap_vanishes():
    # hypothetical loadings with theta2 = lambda2 * theta1 annihilate the
    # leading factor of reinsurer 1's rate
    theta = PremiumPair(2.0, DEFAULT_PARAMS.lambda2 * 2.0)
    assert reinsurer_rate(DEFAULT_PARAMS, theta, 1) == 0.0


def test_reinsurer_rate_rejects_bad_index():
    with pytest.raises(ValueError):
        reinsurer_rate(DEFAULT_PARAMS, PremiumPair(1.0, 1.0), 3)


@pytest.mark.parametrize("i", [0, 3])
def test_welfare_index_and_value_reject_bad_index(i):
    eq = solve(DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        welfare_index(DEFAULT_PARAMS, eq, i)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        value_reinsurer(DEFAULT_PARAMS, eq, i, 0.0, 0.0)


def test_value_functions_terminal_condition():
    eq = solve(DEFAULT_PARAMS)
    T = DEFAULT_PARAMS.horizon
    assert value_insurer(DEFAULT_PARAMS, eq, T, 0.0) == pytest.approx(-1.0 / 5.0)
    assert value_reinsurer(DEFAULT_PARAMS, eq, 1, T, 0.0) == pytest.approx(-1.0 / 4.0)
    assert value_reinsurer(DEFAULT_PARAMS, eq, 2, T, 0.0) == pytest.approx(-1.0 / 6.0)


def test_value_insurer_increasing_in_wealth():
    eq = solve(DEFAULT_PARAMS)
    values = [value_insurer(DEFAULT_PARAMS, eq, 0.3, x) for x in (-1.0, 0.0, 2.0)]
    assert values[0] < values[1] < values[2] < 0.0


def test_value_insurer_matches_gaussian_oracle():
    eq = solve(DEFAULT_PARAMS)
    closed = value_insurer(DEFAULT_PARAMS, eq, 0.0, DEFAULT_PARAMS.x0)
    oracle = gaussian_utility_insurer(DEFAULT_PARAMS, eq.theta_star, eq.p_star)
    assert closed == pytest.approx(oracle, rel=1e-12)


def test_value_insurer_matches_monte_carlo():
    eq = solve(DEFAULT_PARAMS)
    reports = simulate_utilities(DEFAULT_PARAMS, eq.theta_star, eq.p_star,
                                 SimConfig(paths=100_000, seed=11))
    closed = value_insurer(DEFAULT_PARAMS, eq, 0.0, DEFAULT_PARAMS.x0)
    report = reports["insurer"]
    assert abs(report.estimate - closed) <= 3.0 * report.std_error


def test_welfare_index_proportional_to_rate():
    eq = solve(DEFAULT_PARAMS)
    for i, di in ((1, 4.0), (2, 6.0)):
        expected = reinsurer_rate(DEFAULT_PARAMS, eq.theta_star, i) \
            / (DEFAULT_PARAMS.sigma ** 2 * DEFAULT_PARAMS.delta0 * di)
        assert welfare_index(DEFAULT_PARAMS, eq, i) == pytest.approx(expected, rel=1e-15)


def test_welfare_index_increases_with_competition():
    base = solve(DEFAULT_PARAMS)
    bumped_params = replace(DEFAULT_PARAMS, lambda1=0.4)
    bumped = solve(bumped_params)
    for i in (1, 2):
        assert welfare_index(bumped_params, bumped, i) \
            > welfare_index(DEFAULT_PARAMS, base, i)


@pytest.mark.parametrize("parameter", ["lambda1", "lambda2"])
def test_f0_rate_decreasing_in_competition(parameter):
    rates = []
    for value in np.linspace(0.02, 0.98, 20):
        params = replace(DEFAULT_PARAMS, **{parameter: value})
        rates.append(solve(params).f0_rate)
    assert all(a > b for a, b in zip(rates, rates[1:]))
