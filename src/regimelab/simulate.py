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
one noise panel, shared by every theta of a grid (common random numbers),
and sorts it in place. Rounding is monotone, so at every theta the agents
who attack form a prefix of the sorted panel, and one vectorised bisection
finds each prefix's length: a replication costs one draw, one sort and
O(len(theta) * log n_agents) counting, and gives the counts that comparing
every signal with the cutoff gives, bit for bit.

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

# A replication holds 8 bytes per agent (the panel, sorted in place), so the
# bound is 800 MB: 100 times the 1e6 agents of the largest benchmark run.
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


def _fraction_matrix(n_thetas: int, config: SimConfig) -> np.ndarray:
    """A zeroed (theta, replication) matrix; past _MAX_CELLS, refused unallocated."""
    if n_thetas * config.n_reps > _MAX_CELLS:
        raise DomainError(
            f"{n_thetas:,} theta x {config.n_reps:,} replications exceeds "
            f"{_MAX_CELLS:,} simulated cells"
        )
    return np.zeros((n_thetas, config.n_reps))


def _sorted_panel(params: ModelParams, config: SimConfig, stream: int, index: int) -> np.ndarray:
    """One replication's noise panel: n_agents draws uniform on [-sigma, sigma], sorted in place."""
    rng = np.random.default_rng(_sub_seed(config.master_seed, stream, index))
    eps = rng.uniform(-params.sigma, params.sigma, config.n_agents)
    eps.sort()
    return eps


def _attack_counts(sorted_eps: np.ndarray, thetas: np.ndarray, x_cutoff: float) -> np.ndarray:
    """For each theta, the number of eps in the sorted panel with fl(theta + eps) <= x_cutoff.

    Rounding to nearest is monotone, so fl(theta + eps) does not decrease as
    eps grows and the eps that satisfy the predicate form a prefix of the
    panel. A lower-bound bisection over [0, n] finds every prefix's length
    at once, evaluating the exact predicate at each probe, in
    n.bit_length() = ceil(log2(n + 1)) rounds.
    """
    n = sorted_eps.size
    step = 1 << (n.bit_length() - 1)  # the largest power of two <= n
    # last indexes the last eps known to attack (-1 for none), and the count
    # lies in [last + 1, last + step]. The first probe asks whether the first
    # step attack: if so the count lies in [step, n], and last = n - step
    # (< step, since n < 2 * step) leaves the same window as a miss does.
    # Every later probe halves the window, so none reaches past n - 1.
    last = np.where(thetas + sorted_eps[step - 1] <= x_cutoff, n - step, -1)
    while step > 1:
        step >>= 1
        probe = last + step
        last = np.where(thetas + sorted_eps[probe] <= x_cutoff, probe, last)
    return last + 1


def _attack_fractions(
    params: ModelParams, thetas: np.ndarray, x_cutoff: float, config: SimConfig
) -> np.ndarray:
    """The (theta, replication) matrix of sample attack fractions.

    Each replication draws one noise panel, sorts it in place, and counts
    for every theta at once the signals fl(theta + eps) at or below
    x_cutoff (_attack_counts). The panel lives only for its own count, so
    one panel is held at a time. An empty grid draws nothing.
    """
    alphas = _fraction_matrix(thetas.size, config)
    if not thetas.size:
        return alphas
    if not math.isfinite(2.0 * params.sigma):
        raise DomainError(f"noise width 2*sigma overflows at sigma = {params.sigma:g}")
    for k in range(config.n_reps):
        alphas[:, k] = _attack_counts(
            _sorted_panel(params, config, _STREAM_REPS, k), thetas, x_cutoff
        )
    alphas /= config.n_agents
    return alphas


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
    alphas = _fraction_matrix(thetas.size, config)
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
        eps = _sorted_panel(params, config, _STREAM_BEST_RESPONSE, k)
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
