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

from .errors import ConvergenceError, DomainError
from .model import ModelParams, clamp_unit, cost, quiet_overflow


@dataclass(frozen=True)
class ContinuationEquilibrium:
    """Threshold pair of the fixed-policy game at policy level r."""

    r: float
    x_cutoff: float
    theta_cutoff: float


@dataclass(frozen=True)
class DominanceTrace:
    """Cutoff sequences produced by iterated elimination.

    upper_seq starts from a cutoff so high that everyone attacks and is
    non-increasing; lower_seq starts from one so low that nobody attacks and
    is non-decreasing. contraction_modulus = 1/(1 + 2*sigma) bounds the
    per-step shrinkage of the bracket, which sizes the solver's round budget;
    rounding can still stall it above a tolerance as fine as 1e-16.
    """

    upper_seq: tuple[float, ...]
    lower_seq: tuple[float, ...]
    converged: bool
    contraction_modulus: float


def _require_unit_policy(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise DomainError("r must lie in [0,1]")


def closed_form_thresholds(params: ModelParams, r: float) -> ContinuationEquilibrium:
    """Equilibrium thresholds of the fixed-policy game, in closed form."""
    _require_unit_policy(r)
    theta_cutoff = 1.0 - r
    x_cutoff = (1.0 + 2.0 * params.sigma) * (1.0 - r) - params.sigma
    if not math.isfinite(x_cutoff):
        raise DomainError(f"continuation thresholds are not finite at sigma = {params.sigma:g}")
    return ContinuationEquilibrium(r=r, x_cutoff=x_cutoff, theta_cutoff=theta_cutoff)


@quiet_overflow
def attack_mass(params: ModelParams, x_cutoff: float, theta: float) -> float:
    """Mass of agents whose signal lands at or below the cutoff, given theta.

    Signals are theta + eps with eps uniform on [-sigma, sigma], so the mass
    is the clamped linear ramp (x_cutoff - theta + sigma) / (2*sigma).
    x_cutoff and theta may be arrays that broadcast together.
    """
    return clamp_unit((x_cutoff - theta + params.sigma) / (2.0 * params.sigma))


def continuation_welfare(params: ModelParams, r: float, theta: float) -> float:
    """Policymaker welfare when r is exogenous and public.

    The regime is abandoned at or below the fall threshold (paying only the
    policy cost); above it the policymaker nets theta minus the equilibrium
    attack minus the cost. Used as the no-signalling benchmark in sweeps.
    """
    eq = closed_form_thresholds(params, r)
    c = cost(params, r)
    if theta <= eq.theta_cutoff:
        return -c
    return theta - attack_mass(params, eq.x_cutoff, theta) - c


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


# Each round keeps two floats in the trace (about 90 bytes with its lists and
# tuples), so a million rounds hold about 90 MB and take about 2 s; at the
# default tol, sigma below about 1.1e-5 needs more and is refused unrun.
_MAX_ROUNDS = 1_000_000


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
    rounding stalls the bracket above tol (partial trace as ``trace``).
    """
    _require_unit_policy(r)
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    if not math.isfinite(2.0 * params.sigma):
        raise DomainError(f"noise width 2*sigma overflows at sigma = {params.sigma:g}")
    shrink = math.log(2.0 * params.sigma + 3.0) - math.log(tol)
    rounds = max(1, math.ceil(shrink / math.log1p(2.0 * params.sigma))) + 1
    if rounds > _MAX_ROUNDS:
        raise DomainError(f"sigma = {params.sigma:g} needs {rounds:,} rounds, over {_MAX_ROUNDS:,}")
    upper = 1.0 + params.sigma + 1.0
    lower = -params.sigma - 1.0
    upper_seq = [upper]
    lower_seq = [lower]
    for _ in range(rounds):
        upper = best_response_cutoff(params, r, upper)
        lower = best_response_cutoff(params, r, lower)
        upper_seq.append(upper)
        lower_seq.append(lower)
        if upper - lower <= tol:
            break
    converged = upper - lower <= tol
    trace = DominanceTrace(
        upper_seq=tuple(upper_seq),
        lower_seq=tuple(lower_seq),
        converged=converged,
        contraction_modulus=1.0 / (1.0 + 2.0 * params.sigma),
    )
    if not converged:
        err = ConvergenceError(
            f"cutoff bracket still {upper - lower:.3e} wide after "
            f"{rounds} iterations (tol={tol:.1e})"
        )
        err.trace = trace
        raise err
    x_cutoff = 0.5 * (upper + lower)
    eq = ContinuationEquilibrium(
        r=r,
        x_cutoff=x_cutoff,
        theta_cutoff=regime_fall_threshold(params, x_cutoff),
    )
    return eq, trace
