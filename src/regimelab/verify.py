"""Self-contained cross-checking suite behind the ``verify`` CLI command.

Every closed form in the package has an independent route to the same
number: the continuation thresholds have the dominance iteration, the
signalling indifference has the attack-cutoff ramp, the analytic welfare
derivative has a central finite difference. Each check below runs one such
pair over a parameter grid and reports the worst absolute discrepancy.
Each parameter point is solved once: the continuation thresholds over the
policy grid in one array call, and the default signalling family in one
call. The dominance oracle is solved once per report: one batched
recurrence over every (sigma, policy) pair of the grid. Every check then
reads those shared arrays (and the theta probes on them); only the
finite-difference, branch-consistency and sensitivity checks solve their
own shifted or filtered families.
Failures are data, not exceptions: callers read the report and pick an
exit code.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .continuation import (
    ContinuationEquilibrium,
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


def _family_grid(params: ModelParams, n: int = 25) -> np.ndarray:
    r_tilde = max_policy(params)
    grid = params.r_lower + np.arange(1, n + 1) / n * (r_tilde - params.r_lower)
    grid[-1] = r_tilde
    return grid


def _inner_family_grid(params: ModelParams, h: float) -> np.ndarray:
    """Family members at least 2h inside both ends, for central differences."""
    grid = _family_grid(params)
    return grid[(params.r_lower + 2 * h < grid) & (grid < max_policy(params) - 2 * h)]


def _family(params: ModelParams, r_primes: np.ndarray) -> SignalingEquilibrium:
    """Equilibria of r_primes, fields as (members, 1) columns."""
    return solve_signaling(params, r_primes[:, None])


def _worst(errors: np.ndarray) -> float:
    """Largest error, floored at zero (an empty set of points has none); NaN if any is NaN."""
    return float(np.max(errors, initial=0.0))


# Every check is a function of one parameter point and its solved
# equilibria: cont, the continuation thresholds over _POLICIES; eq, the
# default signalling family; and iterated, the thresholds over _POLICIES by
# iterated dominance, or the error the solver raised at this point.
_POLICIES = np.linspace(0.0, 1.0, 21)


def _iterated_rows(params_list: list[ModelParams]) -> Iterable:
    """Each point's iterated-dominance thresholds over _POLICIES, solved as one batch.

    If the solver refuses a point (a round budget past its cap, or a bracket
    that rounding stalls), the points are solved one at a time up to the
    first refused one, whose entry is its error. run_verify raises it at that
    point's dominance check, after its closed form and family, so the exit-2
    line names the first failing point in grid order.
    """
    sigmas = np.array([params.sigma for params in params_list])
    try:
        iterated, _ = iterated_cutoffs(sigmas[:, None], _POLICIES, _SOLVER)
    except RegimeLabError:
        rows = []
        for params in params_list:
            try:
                rows.append(iterated_cutoffs(params.sigma, _POLICIES, _SOLVER)[0])
            except RegimeLabError as err:
                rows.append(err)
                break
        return rows
    return (
        ContinuationEquilibrium(_POLICIES, x_row, theta_row)
        for x_row, theta_row in zip(iterated.x_cutoff, iterated.theta_cutoff)
    )


def _check_continuation_closed_form(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    marginal = cont.theta_cutoff + params.sigma * (1.0 - 2.0 * cont.r)
    errors = np.hstack(
        [np.abs(cont.theta_cutoff - (1.0 - cont.r)), np.abs(cont.x_cutoff - marginal)]
    )
    return cont.r.size, _worst(errors)


def _check_continuation_fixed_point(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    mass = attack_mass(params, cont.x_cutoff, cont.theta_cutoff)
    return cont.r.size, _worst(np.abs(mass - cont.theta_cutoff))


def _check_continuation_indifference(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    prob = success_prob_given_signal(params, cont.theta_cutoff, cont.x_cutoff)
    return cont.r.size, _worst(np.abs(prob - cont.r))


def _check_continuation_dominance(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    if isinstance(iterated, RegimeLabError):
        raise iterated
    errors = np.hstack(
        [
            np.abs(iterated.x_cutoff - cont.x_cutoff),
            np.abs(iterated.theta_cutoff - cont.theta_cutoff),
        ]
    )
    return cont.r.size, _worst(errors)


def _check_continuation_monotonicity(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    # Thresholds must fall strictly as the policy rises.
    diffs = np.hstack([np.diff(cont.x_cutoff), np.diff(cont.theta_cutoff)])
    return cont.r.size - 1, float(np.max(diffs))


def _check_signaling_cost_threshold(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    return eq.r_prime.size, _worst(np.abs(eq.theta_lower - cost(params, eq.r_prime)))


def _check_signaling_indifference(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    # Routed through the signal-cutoff ramp rather than the piecewise form:
    # the piecewise form hits theta_lower at its own theta_upper by
    # construction and would mask an error in theta_upper itself.
    mass = attack_mass(params, eq.x_prime, eq.theta_upper)
    return eq.r_prime.size, _worst(np.abs(mass - eq.theta_lower))


def _check_signaling_attack_consistency(
    params: ModelParams, cont, eq, iterated
) -> tuple[int, float]:
    lo = eq.theta_upper + 2.0 * params.sigma * (eq.theta_lower - 1.0)
    thetas = np.linspace(lo[:, 0] - 1.0, eq.theta_no_attack[:, 0] + 1.0, 41, axis=-1)
    piecewise = aggregate_attack_no_intervention(params, eq, thetas)
    ramp = attack_mass(params, eq.x_prime, thetas)
    return thetas.size, _worst(np.abs(piecewise - ramp))


def _check_signaling_alt_form(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    alt = 2.0 * params.sigma + (
        1.0 - 2.0 * params.sigma * params.r_lower / (1.0 - params.r_lower)
    ) * eq.theta_lower
    return eq.r_prime.size, _worst(np.abs(eq.theta_no_attack - alt))


def _check_signaling_ordering(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
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


def _check_welfare_continuity(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
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


def _check_welfare_branch_consistency(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    # Members whose defend band is empty have nothing to compare.
    banded = _family(params, eq.r_prime[eq.theta_no_attack > eq.theta_upper])
    band = np.linspace(banded.theta_upper[:, 0], banded.theta_no_attack[:, 0], 21, axis=-1)
    thetas = band[:, :-1]
    direct = ex_post_welfare(params, banded, thetas)
    via_attack = thetas - aggregate_attack_no_intervention(params, banded, thetas)
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


def _check_derivative_signs(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
    noisy = params.sigma > critical_sigma(params)
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


def _check_derivative_finite_difference(
    params: ModelParams, cont, eq, iterated
) -> tuple[int, float]:
    h = 1e-5
    inner = _inner_family_grid(params, h)
    eq_mid, eq_lo, eq_hi = (_family(params, r) for r in (inner, inner - h, inner + h))
    points, analytic, counted = _probe_derivatives(params, eq_mid)
    fd = (
        ex_post_welfare(params, eq_hi, points) - ex_post_welfare(params, eq_lo, points)
    ) / (2.0 * h)
    return int(counted.sum()), _worst(np.abs(analytic - fd)[counted])


def _check_threshold_sensitivity(params: ModelParams, cont, eq, iterated) -> tuple[int, float]:
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


@quiet_overflow
def run_verify(params_list: list[ModelParams]) -> VerifyReport:
    """Solve each parameter point once, run every cross-check on it, and collect a report.

    A NaN or infinite error, such as overflow at an extreme sigma gives, fails
    its check with a max_error of None; it raises no numpy warning.
    """
    points = [0] * len(_CHECKS)
    worst = [-np.inf] * len(_CHECKS)
    for params, iterated in zip(params_list, _iterated_rows(params_list)):
        cont = closed_form_thresholds(params, _POLICIES)
        eq = _family(params, _family_grid(params))
        for i, (_, fn, _) in enumerate(_CHECKS):
            n, err = fn(params, cont, eq, iterated)
            points[i] += n
            # np.maximum, unlike max, keeps a NaN whichever side it is on.
            worst[i] = np.maximum(worst[i], err)
    results = (
        CheckResult(
            name=name,
            passed=bool(err <= tolerance),
            points=n,
            max_error=float(err) if np.isfinite(err) else None,
            tolerance=tolerance,
        )
        for (name, _, tolerance), n, err in zip(_CHECKS, points, worst)
        if n
    )
    return VerifyReport(results=tuple(results))


# verify's default grid is their product: both noise regimes for every baseline.
DEFAULT_SIGMA_GRID = (0.5, 1.0, 2.0, 3.0)
DEFAULT_RBAR_GRID = (0.2, 0.35, 0.5)

