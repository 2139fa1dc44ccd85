"""Self-contained cross-checking suite behind the ``verify`` CLI command.

Every closed form in the package has an independent route to the same
number: the continuation thresholds have the dominance iteration, the
signalling indifference has the attack-cutoff ramp, the analytic welfare
derivative has a central finite difference. Each check below runs one such
pair over a parameter grid and reports the worst absolute discrepancy; at
each parameter point it evaluates its whole policy or family grid (and the
theta probes on it) as arrays in one pass.
Failures are data, not exceptions: callers read the report and pick an
exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import (
    attack_mass,
    closed_form_thresholds,
    solve_iterated_dominance,
    success_prob_given_signal,
)
from .model import ModelParams, cost
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
    max_error: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "points": self.points,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
        }


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
            "checks": [res.to_dict() for res in self.results],
        }


def _family_grid(params: ModelParams, n: int = 25) -> np.ndarray:
    r_tilde = max_policy(params)
    grid = params.r_lower + np.arange(1, n + 1) / n * (r_tilde - params.r_lower)
    grid[-1] = r_tilde
    return grid


def _inner_family_grid(params: ModelParams, h: float) -> np.ndarray:
    """Family members at least 2h inside both ends, for central differences."""
    grid = _family_grid(params)
    return grid[(params.r_lower + 2 * h < grid) & (grid < max_policy(params) - 2 * h)]


def _family(params: ModelParams, r_primes=None) -> SignalingEquilibrium:
    """Equilibria of r_primes (default: the family grid), fields as (members, 1) columns."""
    if r_primes is None:
        r_primes = _family_grid(params)
    return solve_signaling(params, r_primes[:, None])


def _worst(errors: np.ndarray) -> float:
    """Largest error, floored at zero (an empty set of points has none)."""
    return max(0.0, float(np.max(errors, initial=0.0)))


def _policy_thresholds(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The policy grid with its closed-form (x_cutoff, theta_cutoff), as arrays."""
    grid = np.linspace(0.0, 1.0, 21)
    eqs = [closed_form_thresholds(params, float(r)) for r in grid]
    x_cutoff = np.array([eq.x_cutoff for eq in eqs])
    return grid, x_cutoff, np.array([eq.theta_cutoff for eq in eqs])


def _check_continuation_closed_form(params: ModelParams) -> tuple[int, float]:
    r, x_cutoff, theta_cutoff = _policy_thresholds(params)
    marginal = theta_cutoff + params.sigma * (1.0 - 2.0 * r)
    errors = np.hstack([np.abs(theta_cutoff - (1.0 - r)), np.abs(x_cutoff - marginal)])
    return r.size, _worst(errors)


def _check_continuation_fixed_point(params: ModelParams) -> tuple[int, float]:
    r, x_cutoff, theta_cutoff = _policy_thresholds(params)
    mass = attack_mass(params, x_cutoff, theta_cutoff)
    return r.size, _worst(np.abs(mass - theta_cutoff))


def _check_continuation_indifference(params: ModelParams) -> tuple[int, float]:
    r, x_cutoff, theta_cutoff = _policy_thresholds(params)
    prob = success_prob_given_signal(params, theta_cutoff, x_cutoff)
    return r.size, _worst(np.abs(prob - r))


def _check_continuation_dominance(params: ModelParams) -> tuple[int, float]:
    r, x_cutoff, theta_cutoff = _policy_thresholds(params)
    iterated = [solve_iterated_dominance(params, float(p))[0] for p in r]
    errors = np.hstack(
        [
            np.abs(np.array([eq.x_cutoff for eq in iterated]) - x_cutoff),
            np.abs(np.array([eq.theta_cutoff for eq in iterated]) - theta_cutoff),
        ]
    )
    return r.size, _worst(errors)


def _check_continuation_monotonicity(params: ModelParams) -> tuple[int, float]:
    # Thresholds must fall strictly as the policy rises.
    r, x_cutoff, theta_cutoff = _policy_thresholds(params)
    return r.size - 1, float(np.max(np.hstack([np.diff(x_cutoff), np.diff(theta_cutoff)])))


def _check_signaling_cost_threshold(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    return eq.r_prime.size, _worst(np.abs(eq.theta_lower - cost(params, eq.r_prime)))


def _check_signaling_indifference(params: ModelParams) -> tuple[int, float]:
    # Routed through the signal-cutoff ramp rather than the piecewise form:
    # the piecewise form hits theta_lower at its own theta_upper by
    # construction and would mask an error in theta_upper itself.
    eq = _family(params)
    mass = attack_mass(params, eq.x_prime, eq.theta_upper)
    return eq.r_prime.size, _worst(np.abs(mass - eq.theta_lower))


def _check_signaling_attack_consistency(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    lo = eq.theta_upper + 2.0 * params.sigma * (eq.theta_lower - 1.0)
    thetas = np.linspace(lo[:, 0] - 1.0, eq.theta_no_attack[:, 0] + 1.0, 41, axis=-1)
    piecewise = aggregate_attack_no_intervention(params, eq, thetas)
    ramp = attack_mass(params, eq.x_prime, thetas)
    return thetas.size, _worst(np.abs(piecewise - ramp))


def _check_signaling_alt_form(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    alt = 2.0 * params.sigma + (
        1.0 - 2.0 * params.sigma * params.r_lower / (1.0 - params.r_lower)
    ) * eq.theta_lower
    return eq.r_prime.size, _worst(np.abs(eq.theta_no_attack - alt))


def _check_signaling_ordering(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    gaps = np.hstack(
        [
            eq.theta_lower - eq.theta_upper,
            eq.theta_upper - eq.theta_no_attack,
            eq.theta_lower - (1.0 - params.r_lower),
        ]
    )
    return eq.r_prime.size, _worst(gaps)


def _welfare_branch_values(params: ModelParams, eq, theta: float) -> dict[str, float]:
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    return {
        "abandon": 0.0,
        "intervene": theta - eq.theta_lower,
        "defend": (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0,
        "no_attack": theta,
    }


def _check_welfare_continuity(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    at_lower = _welfare_branch_values(params, eq, eq.theta_lower)
    at_upper = _welfare_branch_values(params, eq, eq.theta_upper)
    at_top = _welfare_branch_values(params, eq, eq.theta_no_attack)
    gaps = np.hstack(
        [
            np.abs(at_lower["abandon"] - at_lower["intervene"]),
            np.abs(at_upper["intervene"] - at_upper["defend"]),
            np.abs(at_top["defend"] - at_top["no_attack"]),
        ]
    )
    return gaps.size, _worst(gaps)


def _check_welfare_branch_consistency(params: ModelParams) -> tuple[int, float]:
    eq = _family(params)
    # Members whose defend band is empty have nothing to compare.
    eq = _family(params, eq.r_prime[eq.theta_no_attack > eq.theta_upper])
    band = np.linspace(eq.theta_upper[:, 0], eq.theta_no_attack[:, 0], 21, axis=-1)
    thetas = band[:, :-1]
    direct = ex_post_welfare(params, eq, thetas)
    via_attack = thetas - aggregate_attack_no_intervention(params, eq, thetas)
    return thetas.size, _worst(np.abs(direct - via_attack))


def _probe_derivatives(
    params: ModelParams, eq: SignalingEquilibrium
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe points inside each region, the analytic derivative there, and which count.

    The intervene band's midpoint does not count where the band is empty, and
    a probe that lands exactly on a kink (NaN) is skipped on its own.
    """
    points = np.hstack(
        [
            eq.theta_lower - 0.5,
            0.5 * (eq.theta_lower + eq.theta_upper),
            0.5 * (eq.theta_upper + eq.theta_no_attack),
            eq.theta_no_attack + 0.5,
        ]
    )
    deriv = welfare_derivative_in_rprime(params, eq, points)
    counted = ~np.isnan(deriv)
    counted[:, 1:2] &= eq.theta_upper > eq.theta_lower
    return points, deriv, counted


def _check_derivative_signs(params: ModelParams) -> tuple[int, float]:
    noisy = params.sigma > critical_sigma(params)
    eq = _family(params)
    points, deriv, counted = _probe_derivatives(params, eq)
    region = classify_region(eq, points)
    # Intervening must hurt; defending must help when noisy and may not help
    # when precise; elsewhere the slope is zero.
    violation = np.select(
        [region == PolicyRegion.INTERVENE, region == PolicyRegion.DEFEND_UNDER_ATTACK],
        [deriv, -deriv if noisy else deriv],
        np.abs(deriv),
    )
    return int(counted.sum()), _worst(violation[counted])


def _check_derivative_finite_difference(params: ModelParams) -> tuple[int, float]:
    h = 1e-5
    inner = _inner_family_grid(params, h)
    eq, eq_lo, eq_hi = (_family(params, r) for r in (inner, inner - h, inner + h))
    points, analytic, counted = _probe_derivatives(params, eq)
    fd = (
        ex_post_welfare(params, eq_hi, points) - ex_post_welfare(params, eq_lo, points)
    ) / (2.0 * h)
    return int(counted.sum()), _worst(np.abs(analytic - fd)[counted])


def _check_threshold_sensitivity(params: ModelParams) -> tuple[int, float]:
    h = 1e-6
    inner = _inner_family_grid(params, h)
    analytic = lower_threshold_sensitivity(params, inner)
    fd = (
        solve_signaling(params, inner + h).theta_lower
        - solve_signaling(params, inner - h).theta_lower
    ) / (2.0 * h)
    return inner.size, _worst(np.abs(analytic - fd))


# Each cross-check as (name, check of one parameter point, tolerance).
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


def run_verify(params_list: list[ModelParams]) -> VerifyReport:
    """Run every cross-check over each parameter point and collect a report."""
    results: list[CheckResult] = []
    for name, fn, tolerance in _CHECKS:
        points = 0
        worst = -np.inf
        for params in params_list:
            n, err = fn(params)
            points += n
            worst = max(worst, err)
        if points == 0:
            continue
        results.append(
            CheckResult(
                name=name,
                passed=bool(worst <= tolerance),
                points=points,
                max_error=float(worst),
                tolerance=tolerance,
            )
        )
    return VerifyReport(results=tuple(results))


# verify's default grid is their product: both noise regimes for every baseline.
DEFAULT_SIGMA_GRID = (0.5, 1.0, 2.0, 3.0)
DEFAULT_RBAR_GRID = (0.2, 0.35, 0.5)

