import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stacknash.mcsim
from stacknash import (DEFAULT_PARAMS, CessionPair, InvalidParams,
                       PremiumPair, insurer_response, solve, value_insurer)
from stacknash.mcsim import (_CHUNK, _ROWS, SimConfig, _insurer_margin, _laws,
                             _utility, brownian_total_increments,
                             deviation_test, gaussian_utility_insurer,
                             gaussian_utility_reinsurer,
                             insurer_terminal_moments, simulate_utilities)

from conftest import LARGE_SCALE, random_params, simplex_grid


@pytest.fixture(scope="module")
def default_eq():
    return solve(DEFAULT_PARAMS)


# -- Gaussian oracles ---------------------------------------------------------

def test_insurer_oracle_equals_value_at_best_response(default_eq):
    closed = value_insurer(DEFAULT_PARAMS, default_eq, 0.0, 0.0)
    oracle = gaussian_utility_insurer(DEFAULT_PARAMS, default_eq.theta_star,
                                      default_eq.p_star)
    assert oracle == pytest.approx(closed, rel=1e-12)


def test_insurer_oracle_no_reinsurance_closed_form():
    theta = PremiumPair(3.0, 8.0)
    p = CessionPair(0.0, 0.0)
    d0 = DEFAULT_PARAMS.delta0
    tau = DEFAULT_PARAMS.horizon
    expected = -math.exp(
        -d0 * (DEFAULT_PARAMS.c - DEFAULT_PARAMS.mu) * tau
        + 0.5 * d0 * d0 * DEFAULT_PARAMS.sigma ** 2 * tau) / d0
    assert gaussian_utility_insurer(DEFAULT_PARAMS, theta, p) \
        == pytest.approx(expected, rel=1e-15)


def test_reinsurer_oracle_zero_weight_drops_rival_terms():
    params = replace(DEFAULT_PARAMS, lambda2=0.0)
    theta = PremiumPair(2.0, 5.0)
    p = insurer_response(params.delta0, theta)
    d1, tau = params.delta1, params.horizon
    s2 = params.sigma ** 2
    mean = theta.theta1 * s2 * p.p1 ** 2 * tau
    var = s2 * p.p1 ** 2 * tau
    expected = -math.exp(-d1 * mean + 0.5 * d1 * d1 * var) / d1
    assert gaussian_utility_reinsurer(params, theta, 1) \
        == pytest.approx(expected, rel=1e-15)


def test_reinsurer_best_response_maximizes_oracle(rng):
    # small grid oracle; the 50-draw version lives in the acceptance suite
    from stacknash import phi, reinsurer_side
    from stacknash.mcsim import _utility, reinsurer_terminal_moments

    for _ in range(5):
        params = random_params(rng)
        theta_j = rng.uniform(0.1, 8.0)
        best = phi(reinsurer_side(params, 1), theta_j)
        grid = np.arange(1e-4, params.delta1 + params.delta0 / 2.0, 1e-4)
        mean, var = reinsurer_terminal_moments(params, grid, theta_j, 1)
        top = grid[int(np.argmax(_utility(params.delta1, mean, var)))]
        assert abs(top - best) <= 1e-4 + 1e-12


# -- Monte Carlo --------------------------------------------------------------

def test_same_seed_is_bit_identical(default_eq):
    config = SimConfig(paths=5_000, seed=123)
    a = simulate_utilities(DEFAULT_PARAMS, default_eq.theta_star,
                           default_eq.p_star, config)
    b = simulate_utilities(DEFAULT_PARAMS, default_eq.theta_star,
                           default_eq.p_star, config)
    assert a == b


def test_mc_within_three_standard_errors(default_eq):
    config = SimConfig(paths=100_000, seed=42)
    reports = simulate_utilities(DEFAULT_PARAMS, default_eq.theta_star,
                                 default_eq.p_star, config)
    targets = {
        "insurer": gaussian_utility_insurer(
            DEFAULT_PARAMS, default_eq.theta_star, default_eq.p_star),
        "reinsurer1": gaussian_utility_reinsurer(
            DEFAULT_PARAMS, default_eq.theta_star, 1),
        "reinsurer2": gaussian_utility_reinsurer(
            DEFAULT_PARAMS, default_eq.theta_star, 2),
    }
    for player, report in reports.items():
        assert abs(report.estimate - targets[player]) <= 3.0 * report.std_error


def test_smaller_batch_is_prefix_of_larger():
    # same seed: the draws for fewer paths are the first draws for more paths
    for seed in (0, 7, 123):
        short = brownian_total_increments(
            DEFAULT_PARAMS, SimConfig(paths=1_000, seed=seed))
        long = brownian_total_increments(
            DEFAULT_PARAMS, SimConfig(paths=4_000, seed=seed))
        assert np.array_equal(short, long[:1_000])


def test_monte_carlo_rate(default_eq):
    # error * sqrt(paths) stays bounded by the integrand spread
    target = gaussian_utility_insurer(DEFAULT_PARAMS, default_eq.theta_star,
                                      default_eq.p_star)
    for paths in (1_000, 10_000, 100_000):
        report = simulate_utilities(
            DEFAULT_PARAMS, default_eq.theta_star, default_eq.p_star,
            SimConfig(paths=paths, seed=5))["insurer"]
        err = abs(report.estimate - target)
        assert err <= 4.0 * report.std_error


def test_utilities_match_surplus_dynamics():
    # reference: X0, X1, X2 integrated from their dynamics under constant
    # strategies on the same W(T), and Y_i = X_i - lambda_j*X_j
    config = SimConfig(paths=2_000, seed=99)
    for params in (DEFAULT_PARAMS,
                   replace(DEFAULT_PARAMS, sigma=0.8, mu=4.5, c=5.5,
                           horizon=2.0, x0=0.3, x1=0.2, x2=-0.1)):
        eq = solve(params)
        theta, p = eq.theta_star, eq.p_star
        w = brownian_total_increments(params, config)
        tau, s = params.horizon, params.sigma
        x0 = (params.x0 + (params.c - params.mu) * tau
              - s * s * (theta.theta1 * p.p1 ** 2
                         + theta.theta2 * p.p2 ** 2) * tau
              - s * (1.0 - p.p1 - p.p2) * w)
        x1 = params.x1 + theta.theta1 * s * s * p.p1 ** 2 * tau - s * p.p1 * w
        x2 = params.x2 + theta.theta2 * s * s * p.p2 ** 2 * tau - s * p.p2 * w
        terminal = {"insurer": (params.delta0, x0),
                    "reinsurer1": (params.delta1, x1 - params.lambda2 * x2),
                    "reinsurer2": (params.delta2, x2 - params.lambda1 * x1)}
        reports = simulate_utilities(params, theta, p, config)
        for player, (delta, x) in terminal.items():
            samples = -np.exp(-delta * x) / delta
            std_error = samples.std(ddof=1) / math.sqrt(len(samples))
            assert reports[player].estimate \
                == pytest.approx(samples.mean(), rel=1e-12), player
            assert reports[player].std_error \
                == pytest.approx(std_error, rel=1e-9), player


def test_simulation_allocates_three_path_arrays(default_eq):
    # W(T), one player's utility samples and the deviations of std
    paths = 200_000
    args = (DEFAULT_PARAMS, default_eq.theta_star, default_eq.p_star)
    simulate_utilities(*args, SimConfig(paths=1_000, seed=1))  # warm up
    tracemalloc.start()
    try:
        simulate_utilities(*args, SimConfig(paths=paths, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * paths


@pytest.mark.parametrize("paths", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 7])
def test_chunk_merge_matches_one_shot_moments(default_eq, paths):
    # the reference: numpy's mean and std(ddof=1) over all the samples at
    # once. One chunk gives the same bits; the pairwise merge of several
    # moves each figure by a few ulps at most
    theta, p = default_eq.theta_star, default_eq.p_star
    config = SimConfig(paths=paths, seed=11)
    w = brownian_total_increments(DEFAULT_PARAMS, config)
    reports = simulate_utilities(DEFAULT_PARAMS, theta, p, config)
    ulps = 8 * np.finfo(float).eps
    for player, (delta, mean, diffusion) in _laws(DEFAULT_PARAMS, theta,
                                                  p).items():
        samples = -np.exp(delta * (diffusion * w - mean)) / delta
        estimate = samples.mean()
        std_error = samples.std(ddof=1) / math.sqrt(paths) if paths > 1 \
            else 0.0
        report = reports[player]
        if paths <= _CHUNK:
            assert (report.estimate, report.std_error) \
                == (estimate, std_error), player
        assert report.estimate == pytest.approx(estimate, rel=ulps, abs=0)
        assert report.std_error == pytest.approx(std_error, rel=ulps, abs=0)
        assert report.std_error > 0.0 or paths == 1


def test_simulation_memory_does_not_grow_with_paths(default_eq):
    # W(T) and one player's samples of one chunk: two chunk arrays at any
    # path count, where an unchunked run holds 8 bytes per path per array
    args = (DEFAULT_PARAMS, default_eq.theta_star, default_eq.p_star)
    simulate_utilities(*args, SimConfig(paths=1_000, seed=1))  # warm up
    for paths in (1_000_000, 10_000_000):
        tracemalloc.start()
        try:
            simulate_utilities(*args, SimConfig(paths=paths, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * _CHUNK, paths


def _serial_reports(params, theta, p, config):
    # the chunk loop drawn and reduced on one thread: each chunk's W(T) from
    # one carried Philox generator, then its moments merged pairwise
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    laws = _laws(params, theta, p)
    moments = dict.fromkeys(laws, (0, 0.0, 0.0))
    for start in range(0, config.paths, _CHUNK):
        k = min(_CHUNK, config.paths - start)
        w = math.sqrt(params.horizon) * rng.standard_normal(k)
        for player, (delta, mean, diffusion) in laws.items():
            with np.errstate(over="ignore", invalid="ignore"):
                samples = -np.exp(delta * (diffusion * w - mean)) / delta
                total = float(samples.sum())
                squares = float(np.square(samples - total / k).sum())
            n, s, m2 = moments[player]
            gap = total / k - s / n if n else 0.0
            moments[player] = (n + k, s + total,
                               m2 + squares + gap * gap * (n * k / (n + k)))
    return {player: (s / n, (math.sqrt(m2 / (n - 1)) if n > 1 else 0.0)
                     / math.sqrt(n))
            for player, (n, s, m2) in moments.items()}


@pytest.mark.parametrize("paths", [
    _CHUNK + 5,                   # a last chunk shorter than half a chunk
    _CHUNK + _CHUNK // 2 + 3,     # longer than half a chunk
    2 * _CHUNK,                   # a whole chunk
    3 * _CHUNK + 7])
def test_drawn_ahead_chunks_match_serial_loop_bits(paths):
    params = replace(DEFAULT_PARAMS, delta0=3.0, horizon=2.0)
    eq = solve(params)
    for seed in (0, 7, 123):
        config = SimConfig(paths=paths, seed=seed)
        reports = simulate_utilities(params, eq.theta_star, eq.p_star, config)
        expected = _serial_reports(params, eq.theta_star, eq.p_star, config)
        for player, (estimate, std_error) in expected.items():
            report = reports[player]
            assert (report.estimate.hex(), report.std_error.hex()) \
                == (estimate.hex(), std_error.hex()), (seed, player)


def test_drawer_thread_only_past_one_chunk(default_eq, monkeypatch):
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    args = (DEFAULT_PARAMS, default_eq.theta_star, default_eq.p_star)
    for paths in (1, 100_000, _CHUNK):
        simulate_utilities(*args, SimConfig(paths=paths, seed=3))
    assert not started
    simulate_utilities(*args, SimConfig(paths=2 * _CHUNK + 1, seed=3))
    assert started  # the count sees the drawer where there is one


def test_drawer_is_joined_when_the_arithmetic_raises(default_eq, monkeypatch):
    # the fourth call is the first player of the second chunk, while the
    # third chunk is being drawn
    moments = stacknash.mcsim._chunk_moments
    calls = []

    def failing_on_the_second_chunk(*args):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("arithmetic failed")
        return moments(*args)

    monkeypatch.setattr(stacknash.mcsim, "_chunk_moments",
                        failing_on_the_second_chunk)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="arithmetic failed"):
        simulate_utilities(DEFAULT_PARAMS, default_eq.theta_star,
                           default_eq.p_star,
                           SimConfig(paths=4 * _CHUNK, seed=3))
    assert threading.active_count() == threads


def test_deviation_search_memory_is_a_few_row_blocks(default_eq):
    # a search over the whole 1001 x 1001 cession grid at once holds arrays
    # of 8 MB each; its row blocks stay below one of them
    deviation_test(DEFAULT_PARAMS, default_eq, grid_step=1e-3)  # warm up
    tracemalloc.start()
    try:
        deviation_test(DEFAULT_PARAMS, default_eq, grid_step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1001 ** 2


def test_deviation_search_memory_does_not_grow_with_delta():
    # the loading grid is coarsened to _LOADINGS points (512 KB per array);
    # at step 1e-3 it would hold 3.5e10 points here, 280 GB per array
    params = replace(DEFAULT_PARAMS, **LARGE_SCALE)
    eq = solve(params)
    tracemalloc.start()
    try:
        report = deviation_test(params, eq, grid_step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1001 ** 2
    assert report.improving_deviations == 0


def _full_grid_margin(params, theta, p, step):
    # the search over the whole simplex at once
    mean, var = insurer_terminal_moments(params, theta, *simplex_grid(step))
    return float(_utility(params.delta0, mean, var).max()) \
        - gaussian_utility_insurer(params, theta, p)


@pytest.mark.parametrize("step, draws", [(1e-3, 8), (0.007, 40), (0.05, 40),
                                         (0.0157, 40)])
def test_row_blocks_match_full_grid(step, draws):
    # grid lengths 1001, 143, 21 and 65 are not multiples of _ROWS; at
    # 0.0157 the last row, p1 = 1.0048, lies outside the simplex alone in
    # its block
    assert len(np.arange(0.0, 1.0 + 0.5 * step, step)) % _ROWS
    rng = np.random.default_rng(2024)
    for _ in range(draws):
        params = random_params(rng)
        theta = solve(params).theta_star
        theta = PremiumPair(theta.theta1 * rng.uniform(0.5, 2.0),
                            theta.theta2 * rng.uniform(0.5, 2.0))
        p = insurer_response(params.delta0, theta)
        assert _insurer_margin(params, theta, p, step) \
            == _full_grid_margin(params, theta, p, step)


def test_nan_candidate_counts_as_improving(default_eq, monkeypatch):
    # one NaN candidate in a late block, after finite block maxima; the
    # builtin max would skip it
    moments = stacknash.mcsim.insurer_terminal_moments

    def nan_at_the_last_point(params, theta, p1, p2):
        mean, var = moments(params, theta, p1, p2)
        if np.ndim(mean) and p1.min() > 0.9:
            mean = mean.copy()
            mean[-1] = math.nan
        return mean, var

    monkeypatch.setattr(stacknash.mcsim, "insurer_terminal_moments",
                        nan_at_the_last_point)
    report = deviation_test(DEFAULT_PARAMS, default_eq, grid_step=1e-3)
    assert math.isnan(report.insurer_margin)
    assert report.improving_deviations == 1
    assert not report.worst_margin <= 0.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(paths=0)
    for seed in (-1, 2 ** 128):  # outside the Philox key range
        with pytest.raises(InvalidParams, match="seed"):
            SimConfig(seed=seed)
    SimConfig(seed=2 ** 128 - 1)
    # a float would be cut to the integer below it, or fail inside numpy
    for kwargs in ({"paths": 2.5}, {"paths": 1e5}, {"paths": math.nan},
                   {"seed": 1.5}, {"seed": 1.0}):
        name = next(iter(kwargs))
        with pytest.raises(InvalidParams, match=f"{name} must be an integer"):
            SimConfig(**kwargs)
    SimConfig(paths=np.int64(5), seed=np.uint64(7))


# -- deviation testing --------------------------------------------------------

def test_no_improving_deviation_at_equilibrium(default_eq):
    report = deviation_test(DEFAULT_PARAMS, default_eq, grid_step=1e-3)
    assert report.improving_deviations == 0
    assert report.worst_margin <= 0.0


def test_perturbed_equilibrium_is_rejected(default_eq):
    theta = replace(default_eq.theta_star,
                    theta1=default_eq.theta_star.theta1 + 0.1)
    fake = replace(default_eq, theta_star=theta,
                   p_star=insurer_response(DEFAULT_PARAMS.delta0, theta))
    report = deviation_test(DEFAULT_PARAMS, fake, grid_step=1e-3)
    assert report.improving_deviations > 0
    assert report.reinsurer1_margin > 0.0


def test_deviation_test_rejects_bad_grid_step(default_eq):
    for step in (0.0, -1e-3, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams, match="grid_step"):
            deviation_test(DEFAULT_PARAMS, default_eq, grid_step=step)
    assert deviation_test(DEFAULT_PARAMS, default_eq,
                          grid_step=1.0).improving_deviations == 0


def test_zero_lambda_closed_form_passes_deviation_test():
    params = replace(DEFAULT_PARAMS, lambda1=0.0, lambda2=0.0)
    report = deviation_test(params, solve(params), grid_step=1e-3)
    assert report.improving_deviations == 0
