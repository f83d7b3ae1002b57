"""Acceptance suite.

Each test covers one numbered acceptance criterion and records a single
``criterion N ... : PASS/FAIL`` verdict line. The lines are echoed in the
pytest terminal summary (see conftest) so they survive output capture.
"""

import math
import time
from dataclasses import replace
from functools import wraps

import numpy as np
import pytest

from stacknash import (DEFAULT_PARAMS, CessionPair, NoEquilibrium, PremiumPair,
                       analytic_report, finite_difference_report,
                       insurer_response, limit_profile, phi,
                       premium_identity_gap, reinsurer_side, residual, solve,
                       theta_sensitivity, value_insurer)
from stacknash.cli import _render_sweep
from stacknash.mcsim import (SimConfig, _utility, deviation_test,
                             insurer_terminal_moments,
                             reinsurer_terminal_moments, simulate_utilities)
from stacknash.sensitivity import PARAMETERS

from conftest import random_params, simplex_grid


#: verdict lines, echoed by the pytest_terminal_summary hook in conftest
VERDICTS: list[str] = []


def _record(line: str) -> None:
    VERDICTS.append(line)
    print(line, flush=True)


def criterion(number: int, label: str):
    def decorate(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _record(f"criterion {number} ({label}): FAIL")
                raise
            _record(f"criterion {number} ({label}): PASS")
        return run
    return decorate


@pytest.fixture(scope="module")
def shared_draws():
    # the same 500 draws serve criteria 3 and 4
    rng = np.random.default_rng(8261)
    return [random_params(rng, max_product=0.99) for _ in range(500)]


@criterion(1, "existence gate")
def test_criterion_1_existence_gate():
    rng = np.random.default_rng(101)
    pairs = rng.uniform(0.0, 2.0, size=(1000, 2))
    start = time.perf_counter()
    for l1, l2 in pairs:
        params = replace(DEFAULT_PARAMS,
                         lambda1=float(l1), lambda2=float(l2))
        if l1 * l2 < 1.0:
            eq = solve(params)
            assert eq.theta_star.theta1 > 0 and eq.theta_star.theta2 > 0
        else:
            with pytest.raises(NoEquilibrium):
                solve(params)
    assert time.perf_counter() - start < 1.0


def _zero_lambda_oracle(d0, d1, d2):
    s = d0 * d1 + d0 * d2 + d1 * d2
    t1 = d1 / 2.0 + 0.5 * math.sqrt((d0 + d1) / (d0 + d2) * s)
    t2 = d2 / 2.0 + 0.5 * math.sqrt((d0 + d2) / (d0 + d1) * s)
    return t1, t2


@criterion(2, "zero-competition closed form")
def test_criterion_2_closed_form_match():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    triples = [(5.0, 4.0, 6.0)]
    triples += [tuple(rng.uniform(0.5, 10.0, 3)) for _ in range(100)]
    for d0, d1, d2 in triples:
        params = replace(DEFAULT_PARAMS, delta0=d0, delta1=d1, delta2=d2,
                         lambda1=0.0, lambda2=0.0)
        eq = solve(params)
        t1, t2 = _zero_lambda_oracle(d0, d1, d2)
        assert abs(eq.theta_star.theta1 - t1) <= 1e-10
        assert abs(eq.theta_star.theta2 - t2) <= 1e-10
        assert residual(params, eq.theta_star) <= 1e-10
    t1, t2 = _zero_lambda_oracle(5.0, 4.0, 6.0)
    assert t1 == pytest.approx(5.890551, abs=1e-5)
    assert t2 == pytest.approx(7.755117, abs=1e-5)
    assert time.perf_counter() - start < 1.0


def _sign_changes(params):
    side1 = reinsurer_side(params, 1)
    side2 = reinsurer_side(params, 2)
    hi = params.delta1 + params.delta0 / 2.0 + 1.0
    grid = np.arange(1e-4, hi, 1e-4)
    g = phi(side1, phi(side2, grid)) - grid
    return int(np.count_nonzero(np.diff(np.sign(g)) != 0))


@criterion(3, "fixed-point residual and uniqueness")
def test_criterion_3_residual_and_uniqueness(shared_draws):
    for params in [DEFAULT_PARAMS] + shared_draws:
        eq = solve(params)
        assert eq.residual <= 1e-10
        assert residual(params, eq.theta_star) <= 1e-10
        assert _sign_changes(params) == 1


@criterion(4, "comparative statics")
def test_criterion_4_sensitivity(shared_draws):
    start = time.perf_counter()
    for params in shared_draws:
        eq = solve(params)
        for parameter in ("delta0", "delta1", "delta2"):
            d1, d2 = theta_sensitivity(params, eq, parameter)
            assert d1 > 0 and d2 > 0
        for parameter in ("lambda1", "lambda2"):
            d1, d2 = theta_sensitivity(params, eq, parameter)
            assert d1 < 0 and d2 < 0
        for parameter in PARAMETERS:
            analytic = analytic_report(params, eq, parameter)
            fd = finite_difference_report(params, parameter)
            for a, b in ((analytic.d_theta1, fd.d_theta1),
                         (analytic.d_theta2, fd.d_theta2)):
                # absolute floor for derivatives that vanish near the
                # existence boundary, beyond finite-difference resolution
                assert abs(a - b) <= 1e-5 * max(abs(a), abs(b)) + 1e-10
    assert time.perf_counter() - start < 30.0


@criterion(5, "boundary limit profile")
def test_criterion_5_limit_profile():
    epsilons = [10.0 ** -k for k in range(1, 7)]
    rows = limit_profile(replace(DEFAULT_PARAMS, lambda1=0.3), epsilons)
    theta1 = [r[1] for r in rows]
    theta2 = [r[2] for r in rows]
    assert all(a > b for a, b in zip(theta1, theta1[1:]))
    assert all(a > b for a, b in zip(theta2, theta2[1:]))
    assert rows[-1][0] == pytest.approx(1e-6)
    assert rows[-1][3] >= 0.999


@criterion(6, "insurer welfare monotone in competition")
def test_criterion_6_f0_decreasing():
    for parameter in ("lambda1", "lambda2"):
        rates = []
        for value in np.linspace(0.02, 0.98, 20):
            eq = solve(replace(DEFAULT_PARAMS, **{parameter: float(value)}))
            rates.append(eq.f0_rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))


@criterion(7, "oracle stack")
def test_criterion_7_oracles():
    # (a) algebraic identity behind the insurer value rate
    rng = np.random.default_rng(707)
    for _ in range(1000):
        params = random_params(rng)
        theta = PremiumPair(*rng.uniform(0.05, 20.0, 2))
        d0, s2 = params.delta0, params.sigma ** 2
        denom = d0 * theta.theta1 + d0 * theta.theta2 \
            + 2.0 * theta.theta1 * theta.theta2
        rhs = d0 * s2 * theta.theta1 * theta.theta2 / denom
        assert abs(premium_identity_gap(params, theta)) <= 1e-12 * rhs

    # (b) Monte Carlo against the closed-form insurer value
    eq = solve(DEFAULT_PARAMS)
    config = SimConfig(paths=100_000, seed=17)
    start = time.perf_counter()
    report = simulate_utilities(DEFAULT_PARAMS, eq.theta_star, eq.p_star,
                                config)["insurer"]
    assert time.perf_counter() - start < 5.0
    target = value_insurer(DEFAULT_PARAMS, eq, 0.0, DEFAULT_PARAMS.x0)
    assert abs(report.estimate - target) <= 3.0 * report.std_error
    rerun = simulate_utilities(DEFAULT_PARAMS, eq.theta_star, eq.p_star,
                               config)["insurer"]
    assert rerun == report

    # (c) no improving unilateral deviations
    assert deviation_test(DEFAULT_PARAMS, eq,
                          grid_step=1e-3).improving_deviations == 0
    for _ in range(20):
        params = random_params(rng)
        report = deviation_test(params, solve(params), grid_step=1e-3)
        assert report.improving_deviations == 0


@criterion(8, "best-response grid oracles")
def test_criterion_8_best_response_oracles():
    rng = np.random.default_rng(808)
    step = 1e-3

    g1, g2 = simplex_grid(step)
    for _ in range(50):
        params = random_params(rng)
        theta = PremiumPair(*rng.uniform(0.05, 10.0, 2))
        best = insurer_response(params.delta0, theta)
        mean, var = insurer_terminal_moments(params, theta, g1, g2)
        top = int(np.argmax(_utility(params.delta0, mean, var)))
        assert abs(g1[top] - best.p1) <= step + 1e-12
        assert abs(g2[top] - best.p2) <= step + 1e-12

    for _ in range(50):
        params = random_params(rng)
        i = int(rng.integers(1, 3))
        own = params.delta1 if i == 1 else params.delta2
        theta_j = float(rng.uniform(0.05, 10.0))
        best = phi(reinsurer_side(params, i), theta_j)
        grid = np.arange(step, own + params.delta0 / 2.0 + step, step)
        mean, var = reinsurer_terminal_moments(params, grid, theta_j, i)
        top = grid[int(np.argmax(_utility(own, mean, var)))]
        assert abs(top - best) <= step + 1e-12


@criterion(9, "figure-level orderings")
def test_criterion_9_figures():
    def columns(text, *idx):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return [[float(r[k]) for r in rows] for k in idx]

    text = _render_sweep(DEFAULT_PARAMS, "delta0", 1.0, 10.0, 50)
    theta1, theta2, p1, p2 = columns(text, 1, 2, 3, 4)
    assert all(a > b for a, b in zip(p1, p2))
    assert all(b > a for a, b in zip(theta1, theta2))

    for parameter in ("lambda1", "lambda2"):
        text = _render_sweep(DEFAULT_PARAMS, parameter, 0.02, 0.98, 50)
        theta1, theta2, f1, f2 = columns(text, 1, 2, 6, 7)
        assert all(a > b for a, b in zip(theta1, theta1[1:]))
        assert all(a > b for a, b in zip(theta2, theta2[1:]))
        assert all(a < b for a, b in zip(f1, f1[1:]))
        assert all(a < b for a, b in zip(f2, f2[1:]))
