"""Primitive environment of the regime-change game.

A unit mass of atomistic agents decides whether to attack a regime whose
strength is an unobserved fundamental theta. The policymaker first picks a
publicly observed policy level r (raising it above the baseline is costly),
agents then act on noisy private signals of theta, and finally the
policymaker either maintains or abandons the regime after seeing the attack
mass alpha. Everything downstream consumes the three payoff primitives
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError


class AgentAction(Enum):
    """An individual agent either attacks the regime or refrains."""

    ATTACK = "attack"
    REFRAIN = "refrain"


class RegimeDecision(Enum):
    """The policymaker's final move: maintain the status quo or abandon it."""

    MAINTAIN = "maintain"
    ABANDON = "abandon"


@dataclass(frozen=True)
class ModelParams:
    """Environment primitives.

    sigma:   private signals are theta + eps with eps uniform on
             [-sigma, sigma]; sigma is the noise half-width.
    r_lower: the baseline (zero-cost) policy level; raising the policy to r
             costs (r - r_lower)^2 / 2.
    """

    sigma: float
    r_lower: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise DomainError("sigma must be positive")
        if not 0.0 < self.r_lower < 1.0:
            raise DomainError("r_lower must lie in (0,1)")


@dataclass(frozen=True)
class Fundamental:
    """Regime strength drawn by nature; any finite real, no sign restriction."""

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise DomainError("theta must be finite")


def validate_params(sigma: float, r_lower: float) -> ModelParams:
    """Build a ModelParams, rejecting out-of-range primitives."""
    return ModelParams(float(sigma), float(r_lower))


# A curve computes every branch on the whole grid before selecting one per
# point; overflow in an unselected branch is silent, as float arithmetic is.
quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def float_or_array(value):
    """A 0-d numpy result as a Python float; an array result unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def clamp_unit(raw):
    """min(1, max(0, raw)) elementwise, NaN giving 0 as the builtins do."""
    return float_or_array(np.select([raw >= 1.0, raw > 0.0], [1.0, raw], 0.0))


def cost(params: ModelParams, r: float) -> float:
    """Cost of implementing policy r: (r - r_lower)^2 / 2.

    Zero exactly at the baseline r_lower, strictly convex elsewhere. r may
    be an array, costed elementwise.
    """
    if not np.all(r >= 0.0):
        raise DomainError("r must be nonnegative")
    d = r - params.r_lower
    return 0.5 * d * d


def agent_payoff(action: AgentAction, r: float, decision: RegimeDecision) -> float:
    """Payoff to a single agent.

    Attacking costs r; it pays the success premium 1 only if the regime is
    abandoned. Refraining pays 0 regardless.
    """
    if not r >= 0.0:
        raise DomainError("r must be nonnegative")
    if action is AgentAction.REFRAIN:
        return 0.0
    if decision is RegimeDecision.ABANDON:
        return 1.0 - r
    return -r


def policymaker_payoff(
    params: ModelParams,
    r: float,
    decision: RegimeDecision,
    theta: float,
    alpha: float,
) -> float:
    """Policymaker's realized payoff.

    Maintaining yields the fundamental net of the attack mass, theta - alpha;
    abandoning yields 0. The policy cost is sunk either way.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0,1]")
    c = cost(params, r)
    if decision is RegimeDecision.ABANDON:
        return -c
    return (theta - alpha) - c
