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
sub-seed, so results are bit-identical across runs. Each replication makes
one draw, shared by every theta of a grid (common random numbers), so its
counts never rise as theta does. Rounding is monotone, so fl(theta + eps)
<= x_cutoff holds exactly when eps is at or below theta's threshold, found
once per run by bisection over the doubles of the support [-sigma, sigma].
A theta where all of the support attacks or none of it does is counted
without a draw. The others are counted on the sampler's own lattice: numpy
draws eps as -sigma + 2*sigma*u, with u = k * 2**-53 uniform on k in
[0, 2**53), and that map is monotone too, so eps is at or below a
threshold exactly when u is at or below its lattice bound, and one agent
attacks with the exact probability p_theta of uniform(), rounding
included. A replication is one multinomial draw of n_agents over the
lattice cells between the ascending bounds: each theta's count, a
cumulative sum, is Binomial(n_agents, p_theta), as n_agents compared
signals give, in work that does not grow with n_agents. A theta's draws
depend on the grid around it, whose thresholds set the cells.

A run fills one (theta, replication) matrix of attack fractions, theta-major,
and reduces it row by row into one SimOutcome: float fields for a scalar
theta, arrays in grid order for a grid, as the curve functions return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import ModelParams, float_or_array, policymaker_payoff
from .signaling import SignalingEquilibrium

_MASK64 = 0xFFFFFFFFFFFFFFFF
_STREAM_REPS = 0

# 99.5th percentile of the standard normal: 99% two-sided half-width.
_Z99 = 2.5758293035489004

# 100 times the 1e6 agents of the largest benchmark run. A replication's
# work does not grow with n_agents, so the bound is not on time: it fixes
# the range of --agents the CLI accepts, far below 2**53, where every count
# is an exact double.
_MAX_AGENTS = 100_000_000

# A (theta, replication) cell holds 8 bytes in the attack-fraction matrix and
# about 27 at the peak of scoring and aggregating it, so the bound is about
# 540 MB: a 1e6-point grid at 20 replications, 50,000 times the 420 cells of
# the largest benchmark run. A larger run is refused before it is allocated.
_MAX_CELLS = 20_000_000


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


def _flip(bits: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns (as int64) to keys in the doubles' order, and back."""
    return np.where(bits < 0, bits ^ 0x7FFFFFFFFFFFFFFF, bits)


def _thresholds(thetas: np.ndarray, x_cutoff: float, low: float, high: float) -> np.ndarray:
    """For each theta, the largest eps in [low, high] with fl(theta + eps) <= x_cutoff:
    high where eps = high attacks, NaN where eps = low does not (NaN input included).

    The rest come from one bisection over the doubles' int64 keys, in at most
    64 rounds; its midpoint and loop test cannot overflow, as hi - lo can.
    """
    t = np.where(thetas + high <= x_cutoff, high, np.nan)
    inner = np.flatnonzero((thetas + low <= x_cutoff) & np.isnan(t))
    th = thetas[inner]
    lo = np.full(inner.size, _flip(np.array(low).view(np.int64)))
    hi = np.full(inner.size, _flip(np.array(high).view(np.int64)))
    while np.any(lo < hi - 1):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        attack = th + _flip(mid).view(np.float64) <= x_cutoff
        lo = np.where(attack, mid, lo)
        hi = np.where(attack, hi, mid)
    t[inner] = _flip(lo).view(np.float64)
    return t


def _lattice_bounds(t: np.ndarray, low: float, span: float) -> np.ndarray:
    """For each threshold t >= low, the largest u = k * 2**-53 in [0, 1) with
    low + span*u <= t, in numpy's float arithmetic.

    That is the draw u of random() whose eps = low + span*u, as uniform(low,
    low + span) computes it, is the last at or below t. One bisection over
    the integers k in [0, 2**53], 53 rounds; k = 2**53 (u = 1) is never drawn.
    """
    lo = np.zeros(t.size, dtype=np.int64)
    hi = np.full(t.size, 1 << 53, dtype=np.int64)
    while np.any(lo < hi - 1):
        mid = (lo + hi) >> 1
        below = low + span * (mid * 2.0**-53) <= t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo * 2.0**-53


def _attack_fractions(
    params: ModelParams, thetas: np.ndarray, x_cutoff: float, config: SimConfig
) -> np.ndarray:
    """The (theta, replication) matrix of sample attack fractions.

    The thresholds inside the support, in ascending order, cut the lattice
    into cells; an agent attacks at the i-th of them with probability
    p_i = (k_i + 1) * 2**-53 for its bound k_i * 2**-53. Each replication is
    one multinomial draw of n_agents over the cells, and the count at a
    threshold is the cumulative sum up to its cell. Nothing is drawn when
    no threshold is inside, as for an empty grid. Past _MAX_CELLS, the
    matrix is refused unallocated.
    """
    if thetas.size * config.n_reps > _MAX_CELLS:
        raise DomainError(
            f"{thetas.size:,} theta x {config.n_reps:,} replications exceeds "
            f"{_MAX_CELLS:,} simulated cells"
        )
    alphas = np.zeros((thetas.size, config.n_reps))
    if not thetas.size:
        return alphas
    sigma = params.sigma
    if not math.isfinite(2.0 * sigma):
        raise DomainError(f"noise width 2*sigma overflows at sigma = {sigma:g}")
    t = _thresholds(thetas, x_cutoff, -sigma, sigma)
    alphas[t == sigma] = config.n_agents
    inner = np.flatnonzero(t < sigma)
    if inner.size:
        inner = inner[np.argsort(t[inner])]  # ascending, so no cell is negative
        # Each p_i and each difference of two is a multiple of 2**-53 in
        # [0, 1], so exact: the cells sum to exactly 1.
        p = _lattice_bounds(t[inner], -sigma, 2.0 * sigma) + 2.0**-53
        cells = np.diff(p, prepend=0.0, append=1.0)
        for k in range(config.n_reps):
            rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
            alphas[inner, k] = np.cumsum(rng.multinomial(config.n_agents, cells)[:-1])
    alphas /= config.n_agents
    return alphas


def _row_means(values: np.ndarray) -> np.ndarray:
    """The mean of each row of values, np.mean's bit for bit wherever that is finite.

    A row of finite values whose sum overflows has a finite mean, taken as
    the sum of the values each divided by the row length.
    """
    with np.errstate(over="ignore"):
        means = np.mean(values, axis=1)
    over = np.isinf(means) & np.isfinite(values).all(axis=1)
    if over.any():
        means[over] = np.sum(values[over] / values.shape[1], axis=1)
    return means


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
        _row_means(alphas),
        halfwidth,
        np.count_nonzero(falls, axis=1) / n,
        _row_means(welfare),
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
    gives arrays in grid order, from one draw per replication shared by
    every theta.
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
    x_prime, over all the off-band thetas at once. An on-band theta enters
    that run as NaN, which attacks nowhere, so it is counted nowhere.
    """
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    on_band = (eq.theta_lower <= thetas) & (thetas <= eq.theta_upper)
    alphas = _attack_fractions(params, np.where(on_band, np.nan, thetas), eq.x_prime, config)
    r = np.where(on_band, eq.r_prime, params.r_lower)[:, None]
    return _outcome(params, r, theta, alphas)
