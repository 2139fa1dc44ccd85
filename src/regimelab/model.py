"""Primitive environment of the regime-change game.

A unit mass of atomistic agents decides whether to attack a regime whose
strength is an unobserved fundamental theta. The policymaker first picks a
publicly observed policy level r (raising it above the baseline is costly),
agents then act on noisy private signals of theta, and finally the
policymaker either maintains or abandons the regime after seeing the attack
mass alpha. Everything downstream consumes the two payoff primitives
defined here: the policy cost and the policymaker's payoff. The final move
is the bool abandon, so one call scores a whole (theta, replication) matrix
of Monte Carlo decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ModelParams:
    """Environment primitives.

    sigma:   private signals are theta + eps with eps uniform on
             [-sigma, sigma]; sigma is the noise half-width.
    r_lower: the baseline (zero-cost) policy level; raising the policy to r
             costs (r - r_lower)^2 / 2.

    Both may be arrays that broadcast together, one element per parameter
    point, as verify passes them; every element is validated.
    """

    sigma: float
    r_lower: float

    def __post_init__(self) -> None:
        if not np.all(self.sigma > 0):
            raise DomainError("sigma must be positive")
        if not np.all((0.0 < self.r_lower) & (self.r_lower < 1.0)):
            raise DomainError("r_lower must lie in (0,1)")


# A curve computes every branch on the whole grid before selecting one per
# point; overflow in an unselected branch is silent, as float arithmetic is.
quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def float_or_array(value):
    """A 0-d numpy result as a Python float; an array result unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def first_where(value, where) -> float:
    """value at the first true element of where, value broadcast to its shape.

    Names the offending element of an array in an error message; with
    scalars it is float(value).
    """
    return float(np.broadcast_to(value, np.shape(where))[where][0])


def clamp_unit(raw):
    """min(1, max(0, raw)) elementwise, NaN giving 0 as the builtins do."""
    return float_or_array(np.where(raw >= 1.0, 1.0, np.where(raw > 0.0, raw, 0.0)))


def cost(params: ModelParams, r: float) -> float:
    """Cost of implementing policy r: (r - r_lower)^2 / 2.

    Zero exactly at the baseline r_lower, strictly convex elsewhere. r may
    be an array, costed elementwise.
    """
    if not np.all(r >= 0.0):
        raise DomainError("r must be nonnegative")
    d = r - params.r_lower
    return 0.5 * d * d


def policymaker_payoff(
    params: ModelParams,
    r: float,
    abandon: bool,
    theta: float,
    alpha: float,
) -> float:
    """Policymaker's realized payoff.

    Maintaining yields the fundamental net of the attack mass, theta - alpha;
    abandoning yields 0. The policy cost is sunk either way. Every argument
    after params may be an array; they broadcast together, and a scalar
    input returns a float.
    """
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise DomainError("alpha must lie in [0,1]")
    c = cost(params, r)
    return float_or_array(np.where(abandon, -c, (theta - alpha) - c))
