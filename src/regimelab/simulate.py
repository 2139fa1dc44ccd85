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
counts never rise as theta does. A theta where every signal of the
support [-sigma, sigma] attacks, or none does, is counted without a draw.
The others are counted on the sampler's own lattice: numpy draws eps as
-sigma + 2*sigma*u, with u = k * 2**-53 uniform on k in [0, 2**53), and
both that map and the rounding of theta + eps are monotone in k, so the
signals that attack are those drawn at or below one lattice bound, found
once per run by bisection over k. One agent attacks with the exact
probability p_theta of uniform(), rounding included. A replication is one
multinomial draw of n_agents over the lattice cells between the ascending
bounds: each theta's count, a cumulative sum, is Binomial(n_agents,
p_theta), as n_agents compared signals give, in work that does not grow
with n_agents. A theta's draws depend on the grid around it, whose bounds
set the cells.

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
from .model import ModelParams, float_or_array, policymaker_payoff, quiet_overflow
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


def _lattice_bounds(thetas: np.ndarray, x_cutoff: float, low: float, span: float) -> np.ndarray:
    """For each theta, the largest u = k * 2**-53 in [0, 1) whose signal attacks:
    theta + (low + span*u) <= x_cutoff, in numpy's float arithmetic.

    low + span*u is the eps that uniform(low, low + span) makes of random()'s
    draw u, and both roundings are monotone in k, so the draws that attack
    are those at or below the bound. One bisection over the integers k in
    [0, 2**53], 53 rounds; k = 2**53 (u = 1) is never drawn. A theta whose
    draw u = 0 does not attack gets 0.
    """
    lo = np.zeros(thetas.size, dtype=np.int64)
    hi = np.full(thetas.size, 1 << 53, dtype=np.int64)
    while np.any(lo < hi - 1):
        mid = (lo + hi) >> 1
        attack = thetas + (low + span * (mid * 2.0**-53)) <= x_cutoff
        lo = np.where(attack, mid, lo)
        hi = np.where(attack, hi, mid)
    return lo * 2.0**-53


# A signal theta + eps past the float range is +-inf, which still compares
# with the cutoff exactly, so its overflow is silent.
@quiet_overflow
def _attack_fractions(
    params: ModelParams, thetas: np.ndarray, x_cutoff: float, config: SimConfig
) -> np.ndarray:
    """The (theta, replication) matrix of sample attack fractions.

    A theta where every signal attacks counts n_agents, and one where none
    does (a NaN theta or cutoff included) counts 0. The lattice bounds of
    the others, in ascending order, cut the lattice into cells; an agent
    attacks at the i-th of them with probability p_i = (k_i + 1) * 2**-53
    for its bound k_i * 2**-53. Each replication is one multinomial draw of
    n_agents over the cells, and a theta's count is the cumulative sum up
    to its cell: tied bounds cut empty cells, so their order changes no
    count. Nothing is drawn when no theta is drawn for, as for an empty
    grid. Past _MAX_CELLS, the matrix is refused unallocated.
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
    every = thetas + sigma <= x_cutoff
    drawn = np.flatnonzero((thetas - sigma <= x_cutoff) & ~every)
    p = _lattice_bounds(thetas[drawn], x_cutoff, -sigma, 2.0 * sigma) + 2.0**-53
    alphas[every] = config.n_agents
    if drawn.size:
        order = np.argsort(p)  # ascending, so no cell is negative
        drawn, p = drawn[order], p[order]
        # Each p_i and each difference of two is a multiple of 2**-53 in
        # [0, 1], so exact: the cells sum to exactly 1.
        cells = np.diff(p, prepend=0.0, append=1.0)
        for k in range(config.n_reps):
            rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
            alphas[drawn, k] = np.cumsum(rng.multinomial(config.n_agents, cells)[:-1])
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
