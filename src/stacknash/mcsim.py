"""Independent verification layer: exact Gaussian utilities for constant
strategies, seeded Monte Carlo simulation of the terminal laws, and
unilateral-deviation testing of a solved equilibrium.

Every equilibrium strategy is constant, so each player's terminal quantity
(the insurer's surplus X0(T), reinsurer i's relative performance
X_i(T) - lambda_j*X_j(T)) is mean - diffusion*W(T) in the one shared Brownian
value W(T). Each law is written once: the Gaussian oracles use its moments, and
the Monte Carlo samples it exactly from Philox draws of W(T). For a given seed,
the draws of a smaller batch are the first draws of a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bestresponse import ReinsurerSide, cession_shares, reinsurer_side
from .model import (CessionPair, Equilibrium, InvalidParams, ModelParams,
                    PremiumPair)


@dataclass(frozen=True)
class SimConfig:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise InvalidParams(("paths must be at least 1",))
        if not 0 <= self.seed < 2 ** 128:  # the Philox key range
            raise InvalidParams(("seed must lie in [0, 2**128)",))


@dataclass(frozen=True)
class SimReport:
    estimate: float
    std_error: float


def _utility(delta: float, mean, variance):
    """Expected exponential utility of a normal terminal law."""
    return -np.exp(-delta * mean + 0.5 * delta * delta * variance) / delta


def _insurer_law(params: ModelParams, theta: PremiumPair, p1, p2):
    """(mean, diffusion) of the insurer's terminal surplus
    X0(T) = mean - diffusion*W(T) under constant cession (p1, p2)."""
    drift = params.c - params.mu \
        - params.sigma ** 2 * (theta.theta1 * p1 * p1 + theta.theta2 * p2 * p2)
    return params.x0 + drift * params.horizon, params.sigma * (1.0 - p1 - p2)


def insurer_terminal_moments(params: ModelParams, theta: PremiumPair, p1, p2):
    """Mean and variance of the insurer's terminal surplus under constant
    strategies. Accepts scalar or array cession arguments."""
    mean, diffusion = _insurer_law(params, theta, p1, p2)
    return mean, diffusion * diffusion * params.horizon


def gaussian_utility_insurer(params: ModelParams, theta: PremiumPair,
                             p: CessionPair) -> float:
    """Exact expected utility of the insurer's terminal surplus; an oracle
    independent of the dynamic-programming derivation."""
    mean, var = insurer_terminal_moments(params, theta, p.p1, p.p2)
    return float(_utility(params.delta0, mean, var))


def _reinsurer_law(params: ModelParams, side: ReinsurerSide,
                   theta_i, theta_j, p_i, p_j):
    """(mean, diffusion) of a reinsurer's terminal relative performance
    Y_i(T) = X_i(T) - lambda_j*X_j(T) = mean - diffusion*W(T), given the
    (own, rival) loadings and ceded shares."""
    lj = side.rival_weight
    drift = params.sigma ** 2 * (theta_i * p_i * p_i - lj * theta_j * p_j * p_j)
    return side.y0 + drift * params.horizon, params.sigma * (p_i - lj * p_j)


def reinsurer_terminal_moments(params: ModelParams, theta_i, theta_j, i: int):
    """Mean and variance of reinsurer i's terminal relative performance when
    the insurer best-responds to the loadings (theta_i, theta_j)."""
    side = reinsurer_side(params, i)
    pair = cession_shares(params.delta0, *side.own_rival(theta_i, theta_j))
    mean, diffusion = _reinsurer_law(params, side, theta_i, theta_j,
                                     *side.own_rival(*pair))
    return mean, diffusion * diffusion * params.horizon


def gaussian_utility_reinsurer(params: ModelParams, theta: PremiumPair,
                               i: int) -> float:
    """Exact expected utility of reinsurer i's terminal relative performance,
    with the insurer playing its best response to ``theta``."""
    side = reinsurer_side(params, i)
    theta_i, theta_j = side.own_rival(theta.theta1, theta.theta2)
    mean, var = reinsurer_terminal_moments(params, theta_i, theta_j, i)
    return float(_utility(side.own_delta, mean, var))


def brownian_total_increments(params: ModelParams, config: SimConfig) -> np.ndarray:
    """Terminal Brownian values W(T), one per path, shared by all players."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    return math.sqrt(params.horizon) * rng.standard_normal(config.paths)


def _report(samples: np.ndarray) -> SimReport:
    estimate = float(samples.mean())
    spread = float(samples.std(ddof=1)) if len(samples) > 1 else 0.0
    return SimReport(estimate=estimate,
                     std_error=spread / math.sqrt(len(samples)))


def simulate_utilities(params: ModelParams, theta: PremiumPair,
                       p: CessionPair, config: SimConfig) -> dict[str, SimReport]:
    """Seeded Monte Carlo estimates of each player's expected utility under
    constant strategies; keys 'insurer', 'reinsurer1', 'reinsurer2'."""
    w = brownian_total_increments(params, config)
    laws = {"insurer": (params.delta0,
                        *_insurer_law(params, theta, p.p1, p.p2))}
    for i in (1, 2):
        side = reinsurer_side(params, i)
        laws[f"reinsurer{i}"] = (side.own_delta, *_reinsurer_law(
            params, side, *side.own_rival(theta.theta1, theta.theta2),
            *side.own_rival(p.p1, p.p2)))
    return {player: _report(-np.exp(delta * (diffusion * w - mean)) / delta)
            for player, (delta, mean, diffusion) in laws.items()}


@dataclass(frozen=True)
class DeviationReport:
    """Worst utility improvements found by grid search over unilateral
    deviations; all margins are <= 0 at a true equilibrium."""

    insurer_margin: float
    reinsurer1_margin: float
    reinsurer2_margin: float
    improving_deviations: int

    @property
    def worst_margin(self) -> float:
        return max(self.insurer_margin, self.reinsurer1_margin,
                   self.reinsurer2_margin)


def _insurer_margin(params: ModelParams, theta: PremiumPair,
                    p: CessionPair, step: float) -> float:
    grid = np.arange(0.0, 1.0 + 0.5 * step, step)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    mask = p1 + p2 <= 1.0
    p1, p2 = p1[mask], p2[mask]
    mean, var = insurer_terminal_moments(params, theta, p1, p2)
    candidates = _utility(params.delta0, mean, var)
    return float(candidates.max()) - gaussian_utility_insurer(params, theta, p)


def _reinsurer_margin(params: ModelParams, theta: PremiumPair,
                      i: int, step: float) -> float:
    side = reinsurer_side(params, i)
    di = side.own_delta
    _, t_j = side.own_rival(theta.theta1, theta.theta2)
    grid = np.arange(step, di + params.delta0 / 2.0 + 0.5 * step, step)
    mean, var = reinsurer_terminal_moments(params, grid, t_j, i)
    candidates = _utility(di, mean, var)
    return float(candidates.max()) - gaussian_utility_reinsurer(params, theta, i)


def deviation_test(params: ModelParams, eq: Equilibrium,
                   grid_step: float = 1e-3) -> DeviationReport:
    """Grid search for profitable unilateral deviations at a candidate
    equilibrium: the insurer over the cession simplex given theta*, each
    reinsurer over its loading range given the rival's loading and the
    insurer's responsive cession."""
    theta = eq.theta_star
    margins = (_insurer_margin(params, theta, eq.p_star, grid_step),
               _reinsurer_margin(params, theta, 1, grid_step),
               _reinsurer_margin(params, theta, 2, grid_step))
    return DeviationReport(*margins, sum(1 for m in margins if m > 0.0))
