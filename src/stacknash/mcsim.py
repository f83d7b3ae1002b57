"""Independent verification layer: exact Gaussian utilities for constant
strategies, seeded Monte Carlo simulation of the surplus dynamics, and
unilateral-deviation testing of a solved equilibrium.

Every equilibrium strategy is constant, so each terminal surplus is affine in
the single shared Brownian value W(T); drawing W(T) directly samples the
terminal law exactly, and joint path simulation and direct relative-performance
simulation agree pathwise. The Monte Carlo driver uses the counter-based Philox
generator; for a given seed, the draws of a smaller batch are the first draws
of a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bestresponse import ReinsurerSide, cession_shares, reinsurer_side
from .model import CessionPair, Equilibrium, ModelParams, PremiumPair


@dataclass(frozen=True)
class SimConfig:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be at least 1")


@dataclass(frozen=True)
class SimReport:
    estimate: float
    std_error: float


def _utility(delta: float, mean, variance):
    """Expected exponential utility of a normal terminal law."""
    return -np.exp(-delta * mean + 0.5 * delta * delta * variance) / delta


def _insurer_coefficients(params: ModelParams, theta: PremiumPair, p1, p2):
    """Drift and retained share 1 - p1 - p2 (diffusion / sigma) of the
    insurer's surplus under constant cession."""
    drift = params.c - params.mu \
        - params.sigma ** 2 * (theta.theta1 * p1 * p1 + theta.theta2 * p2 * p2)
    return drift, 1.0 - p1 - p2


def insurer_terminal_moments(params: ModelParams, theta: PremiumPair, p1, p2):
    """Mean and variance of the insurer's terminal surplus under constant
    strategies. Accepts scalar or array cession arguments."""
    drift, retained = _insurer_coefficients(params, theta, p1, p2)
    tau = params.horizon
    return params.x0 + drift * tau, params.sigma ** 2 * retained * retained * tau


def gaussian_utility_insurer(params: ModelParams, theta: PremiumPair,
                             p: CessionPair) -> float:
    """Exact expected utility of the insurer's terminal surplus; an oracle
    independent of the dynamic-programming derivation."""
    mean, var = insurer_terminal_moments(params, theta, p.p1, p.p2)
    return float(_utility(params.delta0, mean, var))


def _relative_coefficients(params: ModelParams, side: ReinsurerSide,
                           theta_i, theta_j):
    """Drift and diffusion of a reinsurer's relative performance when the
    insurer best-responds to its loading theta_i and the rival's theta_j."""
    lj = side.rival_weight
    pair = cession_shares(params.delta0, *side.own_rival(theta_i, theta_j))
    p_i, p_j = side.own_rival(*pair)  # pair order back to (own, rival)
    s2 = params.sigma ** 2
    drift = s2 * (theta_i * p_i * p_i - lj * theta_j * p_j * p_j)
    return drift, params.sigma * (p_i - lj * p_j)


def reinsurer_terminal_moments(params: ModelParams, theta_i, theta_j, i: int):
    """Mean and variance of reinsurer i's terminal relative performance when
    the insurer best-responds to the loadings (theta_i, theta_j)."""
    side = reinsurer_side(params, i)
    drift, diffusion = _relative_coefficients(params, side, theta_i, theta_j)
    tau = params.horizon
    return side.y0 + drift * tau, diffusion * diffusion * tau


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


def terminal_surplus_samples(params: ModelParams, theta: PremiumPair,
                             p: CessionPair, config: SimConfig):
    """Jointly simulated terminal surpluses (X0(T), X1(T), X2(T))."""
    w = brownian_total_increments(params, config)
    tau = params.horizon
    s2 = params.sigma ** 2
    drift0, retained = _insurer_coefficients(params, theta, p.p1, p.p2)
    x0 = params.x0 + drift0 * tau - params.sigma * retained * w
    x1 = params.x1 + theta.theta1 * s2 * p.p1 ** 2 * tau - params.sigma * p.p1 * w
    x2 = params.x2 + theta.theta2 * s2 * p.p2 ** 2 * tau - params.sigma * p.p2 * w
    return x0, x1, x2


def relative_performance_samples(params: ModelParams, theta: PremiumPair,
                                 i: int, config: SimConfig) -> np.ndarray:
    """Terminal relative performance of reinsurer i simulated directly from
    its own dynamics, with the insurer best-responding to ``theta``. Pathwise
    identical (same seed) to forming X_i - w_i X_j from the joint simulation."""
    side = reinsurer_side(params, i)
    t_i, t_j = side.own_rival(theta.theta1, theta.theta2)
    drift, diffusion = _relative_coefficients(params, side, t_i, t_j)
    w = brownian_total_increments(params, config)
    return side.y0 + drift * params.horizon - diffusion * w


def _report(samples: np.ndarray) -> SimReport:
    estimate = float(samples.mean())
    spread = float(samples.std(ddof=1)) if len(samples) > 1 else 0.0
    return SimReport(estimate=estimate,
                     std_error=spread / math.sqrt(len(samples)))


def simulate_utilities(params: ModelParams, theta: PremiumPair,
                       p: CessionPair, config: SimConfig) -> dict[str, SimReport]:
    """Seeded Monte Carlo estimates of each player's expected utility under
    constant strategies; keys 'insurer', 'reinsurer1', 'reinsurer2'."""
    x0, x1, x2 = terminal_surplus_samples(params, theta, p, config)
    d0 = params.delta0
    reports = {"insurer": _report(-np.exp(-d0 * x0) / d0)}
    for i in (1, 2):
        side = reinsurer_side(params, i)
        x_own, x_rival = side.own_rival(x1, x2)
        y = x_own - side.rival_weight * x_rival
        di = side.own_delta
        reports[f"reinsurer{i}"] = _report(-np.exp(-di * y) / di)
    return reports


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
