"""Finite-agent Monte Carlo oracle.

The analytic modules treat the agents as a continuum, so the attack mass at
a given fundamental is a deterministic number. Here the same game is played
by n_agents actual draws: each replication samples private signals, applies
the cutoff strategy, resolves the regime decision by the theta <= alpha
rule, and scores the policymaker. As n_agents grows the sample attack
fraction converges to the continuum attack mass, which is what the test
suite checks.

Replications are seeded independently: a counter-based mix (splitmix64) of
the master seed, a stream tag, and the replication index yields each
sub-seed, so results are bit-identical across runs. Each replication draws
one noise panel, shared by every theta of a grid (common random numbers).

A run fills one (theta, replication) matrix of attack fractions, theta-major,
and reduces it row by row into one SimOutcome: float fields for a scalar
theta, arrays in grid order for a grid, as the curve functions return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, float_or_array, policymaker_payoff
from .signaling import SignalingEquilibrium

_MASK64 = 0xFFFFFFFFFFFFFFFF
_STREAM_REPS = 0
_STREAM_BEST_RESPONSE = 1

# 99.5th percentile of the standard normal: 99% two-sided half-width.
_Z99 = 2.5758293035489004

# A replication holds 17 bytes per agent (panel, sum buffer and mask), so the
# bound is 1.7 GB: 100 times the 1e6 agents of the largest benchmark run.
_MAX_AGENTS = 100_000_000


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _sub_seed(master_seed: int, stream: int, index: int) -> int:
    h = _splitmix64(master_seed & _MASK64)
    h = _splitmix64(h ^ (stream & _MASK64))
    h = _splitmix64(h ^ (index & _MASK64))
    return h


@dataclass(frozen=True)
class SimConfig:
    """Size and seeding of a Monte Carlo run."""

    n_agents: int
    n_reps: int
    master_seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_agents <= _MAX_AGENTS:
            raise DomainError(f"n_agents must lie in [1, {_MAX_AGENTS:,}]")
        if self.n_reps < 1:
            raise DomainError("n_reps must be at least 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise DomainError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregates across replications: floats for a scalar theta, arrays over a grid."""

    alpha_mean: float | np.ndarray
    alpha_halfwidth: float | np.ndarray
    fall_frequency: float | np.ndarray
    welfare_mean: float | np.ndarray


def _attack_fractions(
    params: ModelParams, thetas: np.ndarray, x_cutoff: float, config: SimConfig
) -> np.ndarray:
    """The (theta, replication) matrix of sample attack fractions.

    Each replication draws one noise panel and counts, for every theta, the
    signals fl(theta + eps) at or below x_cutoff. An empty grid draws nothing.
    """
    alphas = np.empty((thetas.size, config.n_reps))
    if not thetas.size:
        return alphas
    if not math.isfinite(2.0 * params.sigma):
        raise DomainError(f"noise width 2*sigma overflows at sigma = {params.sigma:g}")
    buf = np.empty(config.n_agents)
    for k in range(config.n_reps):
        rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
        eps = rng.uniform(-params.sigma, params.sigma, config.n_agents)
        for i, t in enumerate(thetas.tolist()):
            np.add(t, eps, out=buf)
            alphas[i, k] = np.count_nonzero(buf <= x_cutoff)
        del eps  # hold one panel at a time: release it before the next draw
    return alphas / config.n_agents


def _outcome(
    params: ModelParams, r: float | np.ndarray, theta, alphas: np.ndarray
) -> SimOutcome:
    """Score each replication at its realized attack fraction and aggregate each row.

    The regime falls iff theta <= alpha (ties fall). r is one policy or a
    column of them, one per row; the fields take theta's shape.
    """
    thetas = np.asarray(theta, dtype=float).reshape(-1, 1)
    falls = thetas <= alphas
    welfare = policymaker_payoff(params, r, falls, thetas, alphas)
    n = alphas.shape[1]
    if n > 1:
        halfwidth = _Z99 * np.std(alphas, axis=1, ddof=1) / math.sqrt(n)
    else:
        halfwidth = np.zeros(len(alphas))
    fields = (
        np.mean(alphas, axis=1),
        halfwidth,
        np.count_nonzero(falls, axis=1) / n,
        np.mean(welfare, axis=1),
    )
    return SimOutcome(*(float_or_array(f.reshape(np.shape(theta))) for f in fields))


def simulate_continuation(
    params: ModelParams,
    r: float,
    theta: float | Sequence[float],
    x_cutoff: float,
    config: SimConfig,
) -> SimOutcome:
    """Play the fixed-policy game with n_agents sampled signals.

    Per replication: draw signals theta + eps with eps uniform on
    [-sigma, sigma], attack iff the signal is at or below x_cutoff, abandon
    iff theta <= attack fraction (ties fall), score the policymaker at the
    realized attack fraction. A scalar theta gives float fields; a grid
    gives arrays in grid order, each entry as its own draw would: one panel
    serves every theta.
    """
    if not r >= 0.0:
        raise DomainError("r must be nonnegative")
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    return _outcome(params, r, theta, _attack_fractions(params, thetas, x_cutoff, config))


def simulate_signaling(
    params: ModelParams,
    eq: SignalingEquilibrium,
    theta: float | Sequence[float],
    config: SimConfig,
) -> SimOutcome:
    """Play one fundamental (or a grid of them) of the signalling equilibrium.

    On the intervention band the outcome is deterministic: the raised policy
    is read as strength, nobody attacks (alpha = 0, nothing is drawn), and
    the policymaker is scored at r_prime. Elsewhere the baseline policy is
    observed and the continuation game runs with the off-path cutoff
    x_prime, over all the off-band thetas at once.
    """
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    on_band = (eq.theta_lower <= thetas) & (thetas <= eq.theta_upper)
    alphas = np.zeros((thetas.size, config.n_reps))
    alphas[~on_band] = _attack_fractions(params, thetas[~on_band], eq.x_prime, config)
    r = np.where(on_band, eq.r_prime, params.r_lower)[:, None]
    return _outcome(params, r, theta, alphas)


def _empirical_fall_threshold(sorted_eps: np.ndarray, x_hat: float) -> float:
    """Solve (sample attack mass at theta) = theta on [0,1] by bisection.

    The sample attack mass is the empirical CDF of the noise panel at
    x_hat - theta, a non-increasing step function of theta, so the gap
    against theta is strictly decreasing and the crossing is unique.
    """
    n = len(sorted_eps)

    def gap(theta: float) -> float:
        count = float(np.searchsorted(sorted_eps, x_hat - theta, side="right"))
        return count / n - theta

    if gap(0.0) <= 0.0:
        return 0.0
    if gap(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def finite_best_response(
    params: ModelParams,
    r: float,
    config: SimConfig,
    iters: int,
) -> float:
    """Iterate the best-response cutoff on simulated attack masses.

    Each step draws a fresh noise panel, finds the empirical fall threshold
    for the current cutoff, and moves the cutoff to the signal at which
    attacking breaks even. Steps settle into a band whose width shrinks
    like 1/sqrt(n_agents); the iteration stops once a step lands inside it.

    Raises ConvergenceError if the steps never settle within iters rounds.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError("r must lie in [0,1]")
    if iters < 1:
        raise DomainError("iters must be at least 1")
    settle = max(6.0 / math.sqrt(config.n_agents), 1e-8)
    x_hat = 2.0 + params.sigma
    for k in range(iters):
        rng = np.random.default_rng(
            _sub_seed(config.master_seed, _STREAM_BEST_RESPONSE, k)
        )
        eps = np.sort(rng.uniform(-params.sigma, params.sigma, config.n_agents))
        theta_star = _empirical_fall_threshold(eps, x_hat)
        x_next = theta_star + params.sigma * (1.0 - 2.0 * r)
        step = abs(x_next - x_hat)
        x_hat = x_next
        if step <= settle:
            return x_hat
    raise ConvergenceError(
        f"empirical best-response cutoff still moving {step:.3e} per "
        f"iteration after {iters} rounds (settle band {settle:.3e})"
    )
