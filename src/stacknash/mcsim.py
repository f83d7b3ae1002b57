"""Independent verification layer: exact Gaussian utilities for constant
strategies, seeded Monte Carlo simulation of the terminal laws, and
unilateral-deviation testing of a solved equilibrium.

Every equilibrium strategy is constant, so each player's terminal quantity
(the insurer's surplus X0(T), reinsurer i's relative performance
X_i(T) - lambda_j*X_j(T)) is mean - diffusion*W(T) in the one shared Brownian
value W(T). Each law is written once: the Gaussian oracles use its moments, and
the Monte Carlo samples it exactly from Philox draws of W(T). For a given seed,
the draws of a smaller batch are the first draws of a larger one.
Memory does not grow with the path count, the grid or the scale of delta: W(T)
is drawn in chunks whose moments are merged pairwise (Chan, Golub and LeVeque
1979), the cession search evaluates four points per row of the simplex, and a
loading grid holds at most _LOADINGS points.
Past one chunk, a second thread draws the next chunk of W(T) from the same
generator while this one computes the players' moments; numpy releases the
GIL in both. The draws are split in two, so 2.5 chunk arrays suffice where a
double buffer would hold three: the first half goes to a half-chunk array
while the first two players use the scratch array, and the rest to the
scratch array while the last player is computed in place in W(T). Draws made
in turn are the draws of one batch, so every estimate keeps its bits.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .bestresponse import ReinsurerSide, cession_shares, reinsurer_side
from .model import (CessionPair, Equilibrium, InvalidParams, ModelParams,
                    PremiumPair)

# paths per Monte Carlo chunk: 2 MB per float64 array, of which a run holds
# 2.5 (W(T), scratch and the next chunk's first half). Kept at 2**18 or more,
# as smaller arrays leave glibc's mmap threshold low and slow later
# allocations of 1-2 MB in the same process
_CHUNK = 1 << 18
# most loadings per reinsurer's deviation search: 512 KB per float64 array
_LOADINGS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("paths", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise InvalidParams((f"{name} must be an integer",)) from None
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
    with np.errstate(over="ignore", invalid="ignore"):
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


def _philox(config: SimConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=config.seed))


def brownian_total_increments(params: ModelParams, config: SimConfig) -> np.ndarray:
    """Terminal Brownian values W(T), one per path, shared by all players."""
    return math.sqrt(params.horizon) * _philox(config).standard_normal(config.paths)


def _laws(params: ModelParams, theta: PremiumPair, p: CessionPair) -> dict:
    """(risk aversion, mean, diffusion) of each player's terminal quantity
    under constant strategies; keys 'insurer', 'reinsurer1', 'reinsurer2'."""
    laws = {"insurer": (params.delta0,
                        *_insurer_law(params, theta, p.p1, p.p2))}
    for i in (1, 2):
        side = reinsurer_side(params, i)
        laws[f"reinsurer{i}"] = (side.own_delta, *_reinsurer_law(
            params, side, *side.own_rival(theta.theta1, theta.theta2),
            *side.own_rival(p.p1, p.p2)))
    return laws


def _draw(rng: np.random.Generator, scale: float, out: np.ndarray) -> None:
    """The next len(out) values of W(T) from ``rng``, in place."""
    rng.standard_normal(out=out)
    out *= scale


def _drawing(rng: np.random.Generator, scale: float,
             out: np.ndarray) -> threading.Thread:
    """``_draw`` started on a second thread. numpy releases the GIL while it
    draws and scales, and neither can raise into a preallocated array."""
    thread = threading.Thread(target=_draw, args=(rng, scale, out))
    thread.start()
    return thread


def _chunk_moments(delta: float, mean: float, diffusion: float,
                   w: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squared deviations of one player's utility samples
    -exp(delta*(diffusion*w - mean))/delta, computed in place in ``u``,
    which may be ``w`` itself. inf and NaN carry into the moments, where no
    check passes on them."""
    np.multiply(diffusion, w, out=u)
    with np.errstate(over="ignore", invalid="ignore"):
        u -= mean
        u *= delta
        np.exp(u, out=u)
        u /= -delta
        total = float(u.sum())
        u -= total / len(u)
        u *= u
        return total, float(u.sum())


def simulate_utilities(params: ModelParams, theta: PremiumPair,
                       p: CessionPair, config: SimConfig) -> dict[str, SimReport]:
    """Seeded Monte Carlo estimates of each player's expected utility under
    constant strategies; keys 'insurer', 'reinsurer1', 'reinsurer2'. Draws
    the same W(T) as ``brownian_total_increments`` in chunks of _CHUNK
    paths; past one chunk, a second thread draws the next chunk while this
    thread computes the players' moments of the current one."""
    laws = _laws(params, theta, p)
    *scratch_laws, last_law = laws.values()
    # per player: paths, sum and sum of squared deviations so far
    moments = dict.fromkeys(laws, (0, 0.0, 0.0))
    rng, scale = _philox(config), math.sqrt(params.horizon)
    paths = config.paths
    w = np.empty(min(_CHUNK, paths))  # W(T) of this chunk
    u = np.empty_like(w)  # scratch, then W(T) of the next chunk
    # the first draws of the next chunk, made while u is still scratch
    half = np.empty(_CHUNK // 2) if paths > _CHUNK else None
    _draw(rng, scale, w)
    drawer = None
    try:
        for start in range(0, paths, _CHUNK):
            k = min(_CHUNK, paths - start)
            after = min(_CHUNK, paths - start - k)  # the next chunk's paths
            h = min(_CHUNK // 2, after)
            if h:
                drawer = _drawing(rng, scale, half[:h])
            sums = [_chunk_moments(*law, w[:k], u[:k]) for law in scratch_laws]
            if after > h:
                drawer.join()
                drawer = _drawing(rng, scale, u[h:after])
            # the last player's samples overwrite this chunk's W(T)
            sums.append(_chunk_moments(*last_law, w[:k], w[:k]))
            for player, (total, squares) in zip(laws, sums):
                n, s, m2 = moments[player]
                # the pairwise update; float arithmetic carries inf and NaN
                gap = total / k - s / n if n else 0.0
                moments[player] = (n + k, s + total,
                                   m2 + squares + gap * gap * (n * k / (n + k)))
            if h:
                drawer.join()
                u[:h] = half[:h]
                w, u = u, w
    finally:
        if drawer is not None:
            drawer.join()
    reports = {}
    for player, (n, s, m2) in moments.items():
        spread = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
        reports[player] = SimReport(estimate=s / n,
                                    std_error=spread / math.sqrt(n))
    return reports


@dataclass(frozen=True)
class DeviationReport:
    """Worst utility improvements found by grid search over unilateral
    deviations; all are <= 0 at a true equilibrium, and NaN counts as > 0."""

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
    d0 = params.delta0
    with np.errstate(over="ignore", invalid="ignore"):
        # given p1, the exponent -d0*mean + d0*d0*var/2 of _insurer_law is
        # convex in p2 and least at d0*(1 - p1)/(d0 + 2*theta2); the 4 grid
        # points around it hold the row's maximum, up to rounding on flat rows
        near = np.floor(d0 * (1.0 - grid) / (d0 + 2.0 * theta.theta2) / step)
        cols = (near.astype(np.intp)[:, None] + np.arange(-1, 3)).ravel()
        p1, p2 = np.repeat(grid, 4), grid.take(cols, mode="clip")
        mask = p1 + p2 <= 1.0
        mean, var = insurer_terminal_moments(params, theta, p1[mask], p2[mask])
        utility = _utility(d0, mean, var)
    # np.max, unlike the builtin max, returns NaN if a candidate is NaN
    return float(np.max(utility)) - gaussian_utility_insurer(params, theta, p)


def _reinsurer_margin(params: ModelParams, theta: PremiumPair,
                      i: int, step: float) -> float:
    side = reinsurer_side(params, i)
    di = side.own_delta
    _, t_j = side.own_rival(theta.theta1, theta.theta2)
    top = di + params.delta0 / 2.0  # the asymptote of the best response
    step = max(step, top / _LOADINGS)
    grid = np.arange(step, top + 0.5 * step, step)
    mean, var = reinsurer_terminal_moments(params, grid, t_j, i)
    candidates = _utility(di, mean, var)
    return float(candidates.max()) - gaussian_utility_reinsurer(params, theta, i)


def deviation_test(params: ModelParams, eq: Equilibrium,
                   grid_step: float = 1e-3) -> DeviationReport:
    """Grid search for profitable unilateral deviations at a candidate
    equilibrium: the insurer over the cession simplex given theta*, at the
    four grid points around each row's optimum; each reinsurer over its
    loading range (0, delta_i + delta0/2], coarsened past _LOADINGS points
    so its memory does not grow with delta, given the rival's loading and
    the insurer's responsive cession. ``grid_step`` must lie in (0, 1]."""
    if not 0.0 < grid_step <= 1.0:  # NaN fails this too
        raise InvalidParams(("grid_step must lie in (0, 1]",))
    theta = eq.theta_star
    margins = (_insurer_margin(params, theta, eq.p_star, grid_step),
               _reinsurer_margin(params, theta, 1, grid_step),
               _reinsurer_margin(params, theta, 2, grid_step))
    return DeviationReport(*margins, sum(1 for m in margins if not m <= 0.0))
