"""Self-contained cross-checking suite behind the ``verify`` CLI command.

Every closed form in the package has an independent route to the same
number: the continuation thresholds have the dominance iteration, the
signalling indifference has the attack-cutoff ramp, the analytic welfare
derivative has a central finite difference. Each check below runs one such
pair over a parameter grid and reports the worst absolute discrepancy.

The grid runs in blocks of _BLOCK points, whose sigma and r_lower are a
leading array axis; policies, family members and theta probes are trailing
axes. Each block is solved once: the continuation thresholds over the
policy grid, the default signalling family, and the dominance oracle as one
batched recurrence, one array call each. Every check reads those shared
arrays (and the theta probes on them) and returns one error per compared
value, as one array that run_verify alone counts and reduces; only the
finite-difference and sensitivity checks solve their own shifted families.
A check that covers only some family members indexes the others out with
a mask, so every point gets the bits and counts it got when solved alone.
Failures are data, not exceptions: callers read the report and pick an
exit code. A point the solvers refuse raises, the first in grid order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .continuation import (
    attack_mass,
    closed_form_thresholds,
    iterated_cutoffs,
    success_prob_given_signal,
)
from .errors import RegimeLabError
from .model import ModelParams, cost, quiet_overflow
from .signaling import (
    PolicyRegion,
    SignalingEquilibrium,
    aggregate_attack_no_intervention,
    classify_region,
    ex_post_welfare,
    max_policy,
    solve_signaling,
)
from .statics import critical_sigma, lower_threshold_sensitivity, welfare_derivative_in_rprime

_TIGHT = 1e-12
_SOLVER = 1e-9
_DERIV = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    points: int
    max_error: float | None
    tolerance: float


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CheckResult, ...]

    @property
    def n_checks(self) -> int:
        return len(self.results)

    @property
    def n_failed(self) -> int:
        return sum(1 for res in self.results if not res.passed)

    @property
    def failed_names(self) -> list[str]:
        return [res.name for res in self.results if not res.passed]

    def to_dict(self) -> dict:
        return {
            "n_checks": self.n_checks,
            "n_failed": self.n_failed,
            "checks": [asdict(res) for res in self.results],
        }


# Every check reads one block of parameter points and its solved equilibria.
# params holds sigma and r_lower as (points, 1, 1) columns; the trailing
# axes hold policies, family members and theta probes. cont is the
# continuation thresholds over _POLICIES, (points, 1, 21); eq the default
# signalling family, fields (points, 25, 1); iterated the thresholds over
# _POLICIES by iterated dominance. A check returns its errors over the
# block, one per compared value; run_verify counts and reduces them.
_POLICIES = np.linspace(0.0, 1.0, 21)
_MEMBERS = 25
_ATTACK_PROBES = 41
# Points per block: the largest array a check builds, the attack-consistency
# probes (points x 25 x 41), stays within verify's own budget of 16,384
# doubles, so a block is 15 points.
_BLOCK = 16_384 // (_MEMBERS * _ATTACK_PROBES)


def _family_grid(params: ModelParams) -> np.ndarray:
    """The default family: _MEMBERS evenly spaced up to r_tilde, as (points, _MEMBERS, 1)."""
    r_tilde = max_policy(params)
    fractions = np.arange(1, _MEMBERS + 1) / _MEMBERS
    grid = params.r_lower + fractions[:, None] * (r_tilde - params.r_lower)
    grid[:, -1] = r_tilde[:, 0]
    return grid


def _inner_members(params: ModelParams, r_prime: np.ndarray, h: float) -> np.ndarray:
    """Which family members lie at least 2h inside both ends, for central differences."""
    return (params.r_lower + 2 * h < r_prime) & (r_prime < max_policy(params) - 2 * h)


def _shifted(r_prime: np.ndarray, inner: np.ndarray, step: float) -> np.ndarray:
    """r_prime + step on the inner members; the others stay put, valid and never counted."""
    return np.where(inner, r_prime + step, r_prime)


def _probe_grid(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(start, stop, num) along the last axis, each element on its own.

    start and stop are (..., 1) columns. Where any one element's step is 0,
    np.linspace computes k / (num - 1) * delta instead of k * step for the
    whole batch, so a member that is never counted would change the bits of
    its block neighbours; here only that element takes the other formula.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    k = np.arange(num, dtype=float)
    grid = np.where(step == 0, k / div * delta, k * step) + start
    grid[..., -1:] = stop
    return grid


def _check_continuation_closed_form(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    marginal = cont.theta_cutoff + params.sigma * (1.0 - 2.0 * cont.r)
    theta_error = np.abs(cont.theta_cutoff - (1.0 - cont.r))
    return np.maximum(theta_error, np.abs(cont.x_cutoff - marginal))


def _check_continuation_fixed_point(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    mass = attack_mass(params, cont.x_cutoff, cont.theta_cutoff)
    return np.abs(mass - cont.theta_cutoff)


def _check_continuation_indifference(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    prob = success_prob_given_signal(params, cont.theta_cutoff, cont.x_cutoff)
    return np.abs(prob - cont.r)


def _check_continuation_dominance(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    return np.maximum(
        np.abs(iterated.x_cutoff - cont.x_cutoff),
        np.abs(iterated.theta_cutoff - cont.theta_cutoff),
    )


def _check_continuation_monotonicity(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    # Thresholds must fall strictly as the policy rises: signed, not floored.
    return np.maximum(np.diff(cont.x_cutoff), np.diff(cont.theta_cutoff))


def _check_signaling_cost_threshold(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    return np.abs(eq.theta_lower - cost(params, eq.r_prime))


def _check_signaling_indifference(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    # Routed through the signal-cutoff ramp rather than the piecewise form:
    # the piecewise form hits theta_lower at its own theta_upper by
    # construction and would mask an error in theta_upper itself.
    mass = attack_mass(params, eq.x_prime, eq.theta_upper)
    return np.abs(mass - eq.theta_lower)


def _check_signaling_attack_consistency(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    lo = eq.theta_upper + 2.0 * params.sigma * (eq.theta_lower - 1.0)
    thetas = _probe_grid(lo - 1.0, eq.theta_no_attack + 1.0, _ATTACK_PROBES)
    piecewise = aggregate_attack_no_intervention(params, eq, thetas)
    ramp = attack_mass(params, eq.x_prime, thetas)
    return np.abs(piecewise - ramp)


def _check_signaling_alt_form(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    alt = 2.0 * params.sigma + (
        1.0 - 2.0 * params.sigma * params.r_lower / (1.0 - params.r_lower)
    ) * eq.theta_lower
    return np.abs(eq.theta_no_attack - alt)


def _check_signaling_ordering(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    # Each gap must not be positive; floored at zero.
    gap = np.maximum(eq.theta_lower - eq.theta_upper, eq.theta_upper - eq.theta_no_attack)
    gap = np.maximum(gap, eq.theta_lower - (1.0 - params.r_lower))
    return np.maximum(gap, 0.0)


def _welfare_branch_values(params: ModelParams, eq, theta: float) -> dict[str, float]:
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    return {
        "abandon": 0.0,
        "intervene": theta - eq.theta_lower,
        "defend": (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0,
        "no_attack": theta,
    }


def _check_welfare_continuity(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    at_lower = _welfare_branch_values(params, eq, eq.theta_lower)
    at_upper = _welfare_branch_values(params, eq, eq.theta_upper)
    at_top = _welfare_branch_values(params, eq, eq.theta_no_attack)
    gaps = (
        np.abs(at_lower["abandon"] - at_lower["intervene"]),
        np.abs(at_upper["intervene"] - at_upper["defend"]),
        np.abs(at_top["defend"] - at_top["no_attack"]),
    )
    return np.stack(gaps)


def _check_welfare_branch_consistency(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    # Members whose defend band is empty have nothing to compare.
    banded = (eq.theta_no_attack > eq.theta_upper)[..., 0]
    thetas = _probe_grid(eq.theta_upper, eq.theta_no_attack, 21)[..., :-1]
    direct = ex_post_welfare(params, eq, thetas)
    via_attack = thetas - aggregate_attack_no_intervention(params, eq, thetas)
    return np.abs(direct - via_attack)[banded]


def _probe_derivatives(
    params: ModelParams, eq: SignalingEquilibrium
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe points inside each region, the analytic derivative there, and which count.

    The intervene band's midpoint does not count where the band is empty, and
    a probe that lands exactly on a kink (NaN) is skipped on its own.
    """
    points = np.concatenate(
        [
            eq.theta_lower - 0.5,
            0.5 * (eq.theta_lower + eq.theta_upper),
            0.5 * (eq.theta_upper + eq.theta_no_attack),
            eq.theta_no_attack + 0.5,
        ],
        axis=-1,
    )
    deriv = welfare_derivative_in_rprime(params, eq, points)
    counted = ~np.isnan(deriv)
    counted[..., 1:2] &= eq.theta_upper > eq.theta_lower
    return points, deriv, counted


def _check_derivative_signs(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    noisy = params.sigma > critical_sigma(params)
    points, deriv, counted = _probe_derivatives(params, eq)
    region = classify_region(eq, points)
    # Intervening must hurt; defending must help when noisy and may not help
    # when precise; elsewhere the slope is zero. Floored at zero.
    violation = np.select(
        [region == PolicyRegion.INTERVENE, region == PolicyRegion.DEFEND_UNDER_ATTACK],
        [deriv, np.where(noisy, -deriv, deriv)],
        np.abs(deriv),
    )
    return np.maximum(violation[counted], 0.0)


def _check_derivative_finite_difference(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    h = 1e-5
    inner = _inner_members(params, eq.r_prime, h)
    eq_lo, eq_hi = (solve_signaling(params, _shifted(eq.r_prime, inner, s)) for s in (-h, h))
    points, analytic, counted = _probe_derivatives(params, eq)
    counted &= inner
    fd = (
        ex_post_welfare(params, eq_hi, points) - ex_post_welfare(params, eq_lo, points)
    ) / (2.0 * h)
    return np.abs(analytic - fd)[counted]


def _check_threshold_sensitivity(params: ModelParams, cont, eq, iterated) -> np.ndarray:
    h = 1e-6
    inner = _inner_members(params, eq.r_prime, h)
    analytic = lower_threshold_sensitivity(params, eq.r_prime)
    fd = (
        solve_signaling(params, _shifted(eq.r_prime, inner, h)).theta_lower
        - solve_signaling(params, _shifted(eq.r_prime, inner, -h)).theta_lower
    ) / (2.0 * h)
    return np.abs(analytic - fd)[inner]


# Each cross-check as (name, check of one block of parameter points, tolerance).
_CHECKS = (
    ("continuation.closed-form", _check_continuation_closed_form, _TIGHT),
    ("continuation.fixed-point", _check_continuation_fixed_point, _TIGHT),
    ("continuation.indifference", _check_continuation_indifference, _TIGHT),
    ("continuation.dominance-oracle", _check_continuation_dominance, _SOLVER),
    # Strict decrease: the worst signed difference must stay below zero.
    ("continuation.monotonicity", _check_continuation_monotonicity, -1e-15),
    ("signaling.cost-threshold", _check_signaling_cost_threshold, _TIGHT),
    ("signaling.indifference", _check_signaling_indifference, _TIGHT),
    ("signaling.attack-consistency", _check_signaling_attack_consistency, _TIGHT),
    ("signaling.alternative-form", _check_signaling_alt_form, _TIGHT),
    ("signaling.ordering", _check_signaling_ordering, _TIGHT),
    ("welfare.continuity", _check_welfare_continuity, _TIGHT),
    ("welfare.branch-consistency", _check_welfare_branch_consistency, _TIGHT),
    ("statics.derivative-signs", _check_derivative_signs, _TIGHT),
    ("statics.derivative-finite-difference", _check_derivative_finite_difference, _DERIV),
    ("statics.threshold-sensitivity", _check_threshold_sensitivity, _DERIV),
)


def _check_block(block: list[ModelParams]) -> list[np.ndarray]:
    """Solve a block of parameter points once and run every check on it.

    Solves the continuation thresholds, then the signalling family, then the
    dominance oracle, so a single point raises what it raised when each point
    was solved on its own, in that order.
    """
    params = ModelParams(
        np.array([point.sigma for point in block])[:, None, None],
        np.array([point.r_lower for point in block])[:, None, None],
    )
    cont = closed_form_thresholds(params, _POLICIES)
    eq = solve_signaling(params, _family_grid(params))
    iterated, _ = iterated_cutoffs(params.sigma, _POLICIES, _SOLVER)
    return [fn(params, cont, eq, iterated) for _, fn, _ in _CHECKS]


def _solve_block(block: list[ModelParams]) -> list[np.ndarray]:
    """_check_block, raising the first refused point's error in grid order.

    A block refused as a whole is walked one point at a time until a point
    raises; the points before it pass, as they did in the block.
    """
    try:
        return _check_block(block)
    except RegimeLabError:
        for params in block:
            _check_block([params])
        raise


@quiet_overflow
def run_verify(params_list: list[ModelParams]) -> VerifyReport:
    """Run every cross-check over the grid, _BLOCK points at a time, and collect a report.

    A check's points are the summed sizes of its error arrays, and its
    max_error their largest element. A NaN or infinite one, such as overflow
    at an extreme sigma gives, fails its check with a max_error of None; it
    raises no numpy warning. A check with no points, such as the finite
    differences on a family narrower than their step, is still reported: it
    passes with a max_error of None. The first point the solvers refuse, in
    grid order, raises its error.
    """
    points = [0] * len(_CHECKS)
    worst = [-np.inf] * len(_CHECKS)
    for start in range(0, len(params_list), _BLOCK):
        for i, errors in enumerate(_solve_block(params_list[start : start + _BLOCK])):
            points[i] += errors.size
            # np.maximum, unlike max, keeps a NaN whichever side it is on.
            worst[i] = np.maximum(worst[i], np.max(errors, initial=-np.inf))
    results = (
        CheckResult(
            name=name,
            passed=bool(err <= tolerance),
            points=n,
            max_error=float(err) if np.isfinite(err) else None,
            tolerance=tolerance,
        )
        for (name, _, tolerance), n, err in zip(_CHECKS, points, worst)
    )
    return VerifyReport(results=tuple(results))


# verify's default grid is their product: both noise regimes for every baseline.
DEFAULT_SIGMA_GRID = (0.5, 1.0, 2.0, 3.0)
DEFAULT_RBAR_GRID = (0.2, 0.35, 0.5)

