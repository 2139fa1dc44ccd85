"""Active-policy signalling equilibria.

When agents understand that the policy choice depends on the fundamental,
raising the policy becomes a signal. For every intervention level r_prime
in (r_lower, max_policy] there is an equilibrium in which the policymaker
intervenes exactly on an intermediate band of fundamentals:

    theta_lower     = (r_prime - r_lower)^2 / 2        (intervention cost)
    theta_upper     = 2*sigma + (1 - 2*sigma/(1 - r_lower)) * theta_lower
    x_prime         = theta_upper + sigma * (2*theta_lower - 1)
    theta_no_attack = theta_upper + 2*sigma * theta_lower

Observing the raised policy, agents conclude the regime is strong enough
and stand down everywhere. Observing the baseline policy, they attack below
the signal cutoff x_prime, producing a piecewise-linear aggregate attack in
theta: full attack at the bottom, a downward ramp of slope -1/(2*sigma),
and no attack from theta_no_attack on. theta_lower is where intervening
starts paying for itself; at theta_upper the policymaker is indifferent
between paying the intervention cost and weathering the residual attack.

max_policy (the top of the family) is the intervention whose cost equals
the whole benefit of surviving, cost(max_policy) = 1 - r_lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .model import ModelParams, clamp_unit, cost, first_where, float_or_array, quiet_overflow


class PolicyRegion(Enum):
    """Where a fundamental falls relative to the equilibrium cutoffs."""

    ABANDON = "abandon"
    INTERVENE = "intervene"
    DEFEND_UNDER_ATTACK = "defend-under-attack"
    NO_ATTACK = "no-attack"


@dataclass(frozen=True)
class SignalingEquilibrium:
    """Threshold bundle of the signalling equilibrium indexed by r_prime.

    The four theta cutoffs satisfy theta_lower <= theta_upper <=
    theta_no_attack, with theta_lower = theta_upper exactly at the top of
    the family (r_prime = r_tilde). x_prime is the attack cutoff agents use
    after observing the baseline policy.
    """

    r_prime: float
    theta_lower: float
    theta_upper: float
    x_prime: float
    theta_no_attack: float
    r_tilde: float


def max_policy(params: ModelParams) -> float:
    """Largest sustainable intervention: cost(max_policy) = 1 - r_lower.

    Elementwise for array params; a scalar r_lower gives a float.
    """
    return float_or_array(params.r_lower + np.sqrt(2.0 * (1.0 - params.r_lower)))


def check_family_member(params: ModelParams, r_prime: float) -> None:
    """Reject an r_prime (any element of an array) outside (r_lower, r_tilde].

    The message names the interval of the first element outside it.
    """
    r_tilde = max_policy(params)
    inside = (params.r_lower < r_prime) & (r_prime <= r_tilde)
    if not np.all(inside):
        outside = np.logical_not(inside)
        raise DomainError(
            f"r_prime must lie in (r_lower, r_tilde] = "
            f"({first_where(params.r_lower, outside):g}, {first_where(r_tilde, outside):.9g}]"
        )


@quiet_overflow
def solve_signaling(params: ModelParams, r_prime: float) -> SignalingEquilibrium:
    """Construct the signalling equilibrium for a given intervention level.

    Rejects r_prime at or below the baseline (no signal content) and above
    max_policy (intervening would cost more than survival is worth). An
    array r_prime, or array params, gives one equilibrium per element of
    their broadcast, in array fields.
    """
    check_family_member(params, r_prime)
    sigma = params.sigma
    theta_lower = cost(params, r_prime)
    theta_upper = 2.0 * sigma + (1.0 - 2.0 * sigma / (1.0 - params.r_lower)) * theta_lower
    x_prime = theta_upper + sigma * (2.0 * theta_lower - 1.0)
    theta_no_attack = theta_upper + 2.0 * sigma * theta_lower
    finite = np.isfinite(theta_upper) & np.isfinite(x_prime) & np.isfinite(theta_no_attack)
    if not np.all(finite):
        raise DomainError(
            f"signalling thresholds are not finite at sigma = {first_where(sigma, ~finite):g}"
        )
    return SignalingEquilibrium(
        r_prime=r_prime,
        theta_lower=theta_lower,
        theta_upper=theta_upper,
        x_prime=x_prime,
        theta_no_attack=theta_no_attack,
        r_tilde=max_policy(params),
    )


# The curves below take theta as a float or an array (eq's fields may broadcast
# against it). Each is a chain of np.where calls whose last call tests the
# first branch, so the first true condition wins.


@quiet_overflow
def aggregate_attack_no_intervention(
    params: ModelParams, eq: SignalingEquilibrium, theta: float
) -> float:
    """Aggregate attack following the baseline policy, as a function of theta.

    Piecewise in theta: 1 below theta_upper + 2*sigma*(theta_lower - 1),
    then the ramp theta_lower + (theta_upper - theta)/(2*sigma), then 0 from
    theta_no_attack on. Identical to the clamped ramp with signal cutoff
    x_prime; at theta_upper it equals theta_lower exactly (the indifference
    that defines theta_upper).
    """
    sigma = params.sigma
    full_attack_below = eq.theta_upper + 2.0 * sigma * (eq.theta_lower - 1.0)
    ramp = clamp_unit(eq.theta_lower + (eq.theta_upper - theta) / (2.0 * sigma))
    return float_or_array(
        np.where(theta < full_attack_below, 1.0, np.where(theta >= eq.theta_no_attack, 0.0, ramp))
    )


@quiet_overflow
def ex_post_welfare(params: ModelParams, eq: SignalingEquilibrium, theta: float) -> float:
    """Policymaker's realized payoff at theta, inside this equilibrium.

    Four branches: 0 where the regime is abandoned; theta - theta_lower on
    the intervention band; theta minus the residual attack while defending
    without intervening; plain theta once no attack occurs. Continuous at
    all three cutoffs.
    """
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    defend = (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0
    welfare = np.where(theta < eq.theta_no_attack, defend, theta)
    welfare = np.where(theta < eq.theta_upper, theta - eq.theta_lower, welfare)
    return float_or_array(np.where(theta < eq.theta_lower, 0.0, welfare))


_REGIONS = np.array(list(PolicyRegion), dtype=object)


def classify_region(eq: SignalingEquilibrium, theta: float) -> PolicyRegion:
    """Assign theta to its equilibrium region; the intervene band is closed.

    An array theta gives an object array of PolicyRegion members.
    """
    index = np.where(theta < eq.theta_no_attack, 2, 3)
    index = np.where(theta <= eq.theta_upper, 1, index)
    return _REGIONS[np.where(theta < eq.theta_lower, 0, index)]
