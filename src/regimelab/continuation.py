"""Fixed-policy continuation game: cutoff equilibrium, two ways.

When the policy r is exogenous and carries no information, the game played
by the agents has a unique equilibrium in cutoff strategies: attack iff the
private signal is at or below x_cutoff, regime falls iff the fundamental is
at or below theta_cutoff. The closed form is

    theta_cutoff(r) = 1 - r
    x_cutoff(r)     = (1 + 2*sigma) * (1 - r) - sigma

and the same pair is recovered here by iterated elimination of
conditionally dominated strategies: one cutoff sequence starts from
"everyone attacks", one from "nobody attacks", and both contract onto the
equilibrium cutoff at rate 1/(1 + 2*sigma), which sizes the solver's round
budget. Keeping both routes alive lets the test suite cross-verify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, clamp_unit, first_where, float_or_array, quiet_overflow


@dataclass(frozen=True)
class ContinuationEquilibrium:
    """Threshold pair of the fixed-policy game at policy level r.

    The fields are floats for a scalar r, and arrays with one element per
    policy when the closed form is given an array of policies.
    """

    r: float
    x_cutoff: float
    theta_cutoff: float


@dataclass(frozen=True)
class DominanceTrace:
    """How iterated elimination ended: its rounds and its last bracket.

    final_bracket is (lower, upper): the cutoff reached from "nobody
    attacks", which never falls, and the one reached from "everyone
    attacks", which never rises. contraction_modulus = 1/(1 + 2*sigma) bounds
    the per-round shrinkage of the bracket, which sizes the solver's round
    budget; rounding can still stall it above a tolerance as fine as 1e-16.
    """

    rounds: int
    final_bracket: tuple[float, float]
    converged: bool
    contraction_modulus: float


def _require_unit_policy(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise DomainError("r must lie in [0,1]")


@quiet_overflow
def closed_form_thresholds(params: ModelParams, r: float) -> ContinuationEquilibrium:
    """Equilibrium thresholds of the fixed-policy game, in closed form.

    r may be an array of policies, and params may hold arrays, solved
    elementwise into array fields (theta_cutoff, which reads no param, has
    the shape of r); scalars give float fields. Every policy must lie in
    [0,1], and every threshold must be finite (the message names the first
    sigma where one is not).
    """
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise DomainError("r must lie in [0,1]")
    theta_cutoff = 1.0 - r
    x_cutoff = (1.0 + 2.0 * params.sigma) * (1.0 - r) - params.sigma
    finite = np.isfinite(x_cutoff)
    if not np.all(finite):
        sigma = first_where(params.sigma, ~finite)
        raise DomainError(f"continuation thresholds are not finite at sigma = {sigma:g}")
    return ContinuationEquilibrium(r=r, x_cutoff=x_cutoff, theta_cutoff=theta_cutoff)


@quiet_overflow
def attack_mass(params: ModelParams, x_cutoff: float, theta: float) -> float:
    """Mass of agents whose signal lands at or below the cutoff, given theta.

    Signals are theta + eps with eps uniform on [-sigma, sigma], so the mass
    is the clamped linear ramp (x_cutoff - theta + sigma) / (2*sigma).
    x_cutoff and theta may be arrays that broadcast together.
    """
    return clamp_unit((x_cutoff - theta + params.sigma) / (2.0 * params.sigma))


@quiet_overflow
def success_prob_given_signal(params: ModelParams, theta_cutoff: float, x: float) -> float:
    """Probability the regime falls, from the viewpoint of one signal x.

    The posterior over theta given x is uniform on [x - sigma, x + sigma],
    so this is the posterior mass at or below theta_cutoff. Takes arrays too.
    """
    return clamp_unit((theta_cutoff - x + params.sigma) / (2.0 * params.sigma))


def regime_fall_threshold(params: ModelParams, x_cutoff: float) -> float:
    """The unique theta at which the attack mass just matches the regime strength.

    Solves attack_mass(x_cutoff, theta) = theta; the interior solution
    (x_cutoff + sigma) / (1 + 2*sigma) is clamped to [0,1] to cover the
    corners where the attack is everywhere too small or everywhere
    overwhelming.
    """
    raw = (x_cutoff + params.sigma) / (1.0 + 2.0 * params.sigma)
    return min(1.0, max(0.0, raw))


def best_response_cutoff(params: ModelParams, r: float, x_hat: float) -> float:
    """Signal at which attacking breaks even when everyone else uses cutoff x_hat.

    The marginal agent equates the success probability with the attack cost
    r, which puts her signal sigma*(1 - 2r) above the fall threshold induced
    by x_hat.
    """
    _require_unit_policy(r)
    return regime_fall_threshold(params, x_hat) + params.sigma * (1.0 - 2.0 * r)


def require_tolerance(tol: float) -> None:
    """Refuse a solver tolerance that is not positive and finite."""
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")


# A round holds no state beyond the bracket, so the cap bounds time only: a
# million scalar rounds take about 1 s. At the default tol, sigma below
# about 1.1e-5 needs more and is refused unrun.
_MAX_ROUNDS = 1_000_000

# Rounds between the batched solver's looks for a stalled bracket.
_STALL_CHECK = 64


def _round_budget(sigma: float, tol: float) -> int:
    """Rounds the elimination may take at sigma before it gives up at tol.

    The 2*sigma + 3 wide start shrinks by 1 + 2*sigma a round, so the bracket
    reaches tol in the ceiling of log(width / tol) / log1p(2*sigma) rounds;
    one more is allowed. Refuses a bad tol, a noise width 2*sigma that
    overflows, and a budget past _MAX_ROUNDS, all before any round is run.
    """
    require_tolerance(tol)
    if not math.isfinite(2.0 * sigma):
        raise DomainError(f"noise width 2*sigma overflows at sigma = {sigma:g}")
    shrink = math.log(2.0 * sigma + 3.0) - math.log(tol)
    # Kept a float until it is bounded: it is infinite below sigma of about
    # 6e-308, and minus infinity there too when tol exceeds the start width.
    budget = shrink / math.log1p(2.0 * sigma)
    if budget > _MAX_ROUNDS - 1:
        need = f"{math.ceil(budget) + 1:,}" if budget < 1e15 else "more than 1e+15"
        raise DomainError(f"sigma = {sigma:g} needs {need} rounds, over {_MAX_ROUNDS:,}")
    return math.ceil(max(1.0, budget)) + 1


def _stalled(width: float, rounds: int, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"cutoff bracket still {width:.3e} wide after {rounds} iterations (tol={tol:.1e})"
    )


def solve_iterated_dominance(
    params: ModelParams,
    r: float,
    tol: float = 1e-9,
) -> tuple[ContinuationEquilibrium, DominanceTrace]:
    """Recover the continuation equilibrium by iterated conditional dominance.

    Starting cutoffs sit strictly outside the dominance regions (high enough
    that the attack mass is 1 on the relevant range, and symmetrically low),
    so the first elimination round already bites. Iteration stops once the
    upper and lower cutoffs agree within tol, in a budget of rounds fixed by
    the 2*sigma + 3 wide start and the contraction modulus, plus one.

    Raises DomainError past _MAX_ROUNDS rounds, and ConvergenceError if
    rounding stalls the bracket above tol (its trace as ``trace``, whose
    rounds are the whole budget). The stall is met in the first round that
    leaves the bracket unchanged, not after the budget is spent.
    """
    _require_unit_policy(r)
    rounds = _round_budget(params.sigma, tol)
    upper = 1.0 + params.sigma + 1.0
    lower = -params.sigma - 1.0
    for done in range(1, rounds + 1):
        last = upper, lower
        upper = best_response_cutoff(params, r, upper)
        lower = best_response_cutoff(params, r, lower)
        if upper - lower <= tol:
            break
        if (upper, lower) == last:
            # A round maps the bracket alone, so one it leaves unchanged
            # stays so: end as the rest of the budget would.
            done = rounds
            break
    converged = upper - lower <= tol
    trace = DominanceTrace(
        rounds=done,
        final_bracket=(lower, upper),
        converged=converged,
        contraction_modulus=1.0 / (1.0 + 2.0 * params.sigma),
    )
    if not converged:
        err = _stalled(upper - lower, rounds, tol)
        err.trace = trace
        raise err
    x_cutoff = 0.5 * (upper + lower)
    eq = ContinuationEquilibrium(
        r=r,
        x_cutoff=x_cutoff,
        theta_cutoff=regime_fall_threshold(params, x_cutoff),
    )
    return eq, trace


def iterated_cutoffs(sigmas, r, tol: float = 1e-9) -> tuple[ContinuationEquilibrium, np.ndarray]:
    """solve_iterated_dominance for every (sigma, policy) element at once.

    sigmas and r broadcast together. Each element runs the scalar solver's
    recurrence with its arithmetic, stops at its own round, and gets its
    bits. Returns the thresholds, with array fields of the broadcast shape
    (floats for scalar inputs), and the rounds each element took as an int
    array of that shape: the scalar solver's trace.rounds.

    Refuses what the scalar solver refuses, with its messages: the first
    refused sigma in order before any round is run, then the first element
    whose bracket rounding stalls above tol.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    policies = np.asarray(r, dtype=float)
    if not np.all((0.0 <= policies) & (policies <= 1.0)):
        raise DomainError("r must lie in [0,1]")
    if not np.all(sigmas > 0.0):
        raise DomainError("sigma must be positive")
    require_tolerance(tol)
    budgets = np.array([_round_budget(s, tol) for s in sigmas.ravel().tolist()], dtype=np.int64)
    shape = np.broadcast_shapes(sigmas.shape, policies.shape)

    def per_element(values):
        return np.broadcast_to(values, shape).flatten()

    sigma = per_element(sigmas)
    # rounds holds each element's budget until it stops, then its count.
    rounds = per_element(budgets.reshape(sigmas.shape))
    x_cutoff = np.empty_like(sigma)
    stalled = {}

    # Only live elements are iterated: their indices, their recurrence
    # constants, and the bracket as one (2, live) array of upper and lower
    # cutoffs, so a round updates both in one new array and four in-place
    # calls. Elements are dropped in the round they stop; next_stop is the
    # earliest live budget. A round that leaves an element's bracket
    # unchanged stops the element, keeping its budget, as the scalar solver
    # does. That bracket is a fixed point, so looking for one only every
    # _STALL_CHECK rounds, and in any round that stops an element anyway,
    # finds it with the same bits, a round or more later.
    live = np.arange(sigma.size)
    sig = sigma
    scale = per_element(1.0 + 2.0 * sigmas)
    shift = per_element(sigmas * (1.0 - 2.0 * policies))
    bracket = np.stack([1.0 + sig + 1.0, -sig - 1.0])
    next_stop = rounds.min(initial=_MAX_ROUNDS)
    done = 0
    while live.size:
        done += 1
        # best_response_cutoff: min(1, max(0, (x + sigma) / (1 + 2 sigma))) +
        # sigma (1 - 2r); fmax(0, .) keeps the builtins' +0 and maps NaN to 0.
        last, bracket = bracket, bracket + sig
        bracket /= scale
        np.fmax(0.0, bracket, out=bracket)
        np.fmin(1.0, bracket, out=bracket)
        bracket += shift
        width = bracket[0] - bracket[1]
        stopping = done >= next_stop or width.min() <= tol
        if not stopping and done % _STALL_CHECK:
            continue
        still = (bracket == last).all(axis=0)
        if not (stopping or still.any()):
            continue
        converged = width <= tol
        stop = converged | still | (rounds[live] <= done)
        finished = live[stop]
        x_cutoff[finished] = 0.5 * (bracket[0, stop] + bracket[1, stop])
        rounds[live[converged]] = done
        failed = stop & ~converged
        stalled.update(zip(live[failed].tolist(), width[failed].tolist()))
        keep = ~stop
        live, sig, scale, shift = (a[keep] for a in (live, sig, scale, shift))
        bracket = bracket[:, keep]
        next_stop = rounds[live].min(initial=_MAX_ROUNDS)
    if stalled:
        first = min(stalled)
        raise _stalled(stalled[first], int(rounds[first]), tol)
    theta_cutoff = clamp_unit((x_cutoff + sigma) / (1.0 + 2.0 * sigma))
    eq = ContinuationEquilibrium(
        r=r,
        x_cutoff=float_or_array(x_cutoff.reshape(shape)),
        theta_cutoff=float_or_array(np.reshape(theta_cutoff, shape)),
    )
    return eq, rounds.reshape(shape)
