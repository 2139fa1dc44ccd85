"""Comparative statics of welfare across the signalling-equilibrium family.

The question answered here: does a more aggressive intervention level help
or hurt the policymaker, fundamental by fundamental? The answer flips at
the critical noise level

    sigma_star = (1 - r_lower) / (2 * r_lower).

Below it (precise signals), raising r_prime weakly lowers welfare at every
theta. Above it (noisy signals), raising r_prime still hurts on the
intervention band but strictly helps on the defend-under-attack band,
because a larger intervention makes non-intervention a more reassuring
signal and shrinks the residual attack.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundaryError, DomainError
from .model import ModelParams, float_or_array
from .signaling import (
    PolicyRegion,
    SignalingEquilibrium,
    aggregate_attack_no_intervention,
    check_family_member,
    classify_region,
    ex_post_welfare,
    max_policy,
    solve_signaling,
)


class Verdict(Enum):
    """Pointwise welfare comparison between two intervention levels."""

    HIGHER_UNDER_AGGRESSIVE = "higher-under-aggressive"
    LOWER_UNDER_AGGRESSIVE = "lower-under-aggressive"
    EQUAL = "equal"


_VERDICTS = np.array(list(Verdict), dtype=object)


@dataclass(frozen=True)
class WelfareComparison:
    """Tabulated welfare under two intervention levels, as arrays over a theta grid.

    The float fields are float arrays; region_low holds PolicyRegion members
    and verdicts Verdict members, in object arrays. attack_low is the
    aggregate attack after no intervention in the r_low equilibrium.
    """

    theta_grid: np.ndarray
    u_low: np.ndarray
    u_high: np.ndarray
    region_low: np.ndarray
    verdicts: np.ndarray
    attack_low: np.ndarray


def critical_sigma(params: ModelParams) -> float:
    """Noise level separating uniformly-harmful from double-edged intervention."""
    return (1.0 - params.r_lower) / (2.0 * params.r_lower)


def lower_threshold_sensitivity(params: ModelParams, r_prime: float) -> float:
    """Derivative of the intervention threshold theta_lower in r_prime.

    Equals r_prime - r_lower, strictly positive on the whole family: a more
    aggressive intervention is justified only by stronger fundamentals.
    r_prime may be an array.
    """
    check_family_member(params, r_prime)
    return r_prime - params.r_lower


def welfare_derivative_in_rprime(
    params: ModelParams, eq: SignalingEquilibrium, theta: float
) -> float:
    """Analytic derivative of ex-post welfare in r_prime, region by region.

    Zero on the abandon and no-attack regions, -(r_prime - r_lower) on the
    intervention band, and -(1/(2*sigma) - r_lower/(1-r_lower)) *
    (r_prime - r_lower) on the defend band, whose sign flips at
    sigma = critical_sigma. Welfare is piecewise linear and has no
    derivative at its three kinks: a scalar theta there is refused
    outright, and an array marks those points NaN. theta and the fields of
    eq may be arrays that broadcast together.
    """
    kink = (theta == eq.theta_lower) | (theta == eq.theta_upper)
    kink = kink | (theta == eq.theta_no_attack)
    if np.ndim(kink) == 0 and kink:
        raise BoundaryError(
            f"welfare has a kink at theta={theta:.9g}; derivative undefined"
        )
    slope = eq.r_prime - params.r_lower
    region = classify_region(eq, theta)
    intervene = region == PolicyRegion.INTERVENE
    defend = region == PolicyRegion.DEFEND_UNDER_ATTACK
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    return float_or_array(
        np.select([kink, intervene, defend], [np.nan, -slope, -(inv - ratio) * slope], 0.0)
    )


def compare_welfare(
    params: ModelParams,
    r_low: float,
    r_high: float,
    theta_grid: list[float],
    tol: float = 1e-9,
) -> WelfareComparison:
    """Tabulate welfare under r_low and r_high and issue a per-theta verdict.

    r_low == r_high is allowed (every verdict is then EQUAL); reversed
    ordering is not. The grid must be non-empty and sorted ascending. The
    fields are compare_slices' slices, concatenated.
    """
    # Each column's slices are dropped once it is joined, so the table is
    # held once, plus one column.
    columns = list(zip(*compare_slices(params, r_low, r_high, theta_grid, tol)))
    theta, region_low, attack_low, u_low, u_high, verdicts = (
        np.concatenate(columns.pop(0)) for _ in range(6)
    )
    return WelfareComparison(theta, u_low, u_high, region_low, verdicts, attack_low)


# Slices of the theta grid bound each numpy temporary to 128 KiB; whole-grid
# temporaries of a dense sweep fragment the heap and raise its peak memory.
_SWEEP_SLICE = 16_384


def compare_slices(
    params: ModelParams,
    r_low: float,
    r_high: float,
    theta_grid: list[float],
    tol: float = 1e-9,
) -> Iterator[tuple[np.ndarray, ...]]:
    """compare_welfare's table, a _SWEEP_SLICE run of theta_grid at a time.

    Yields (theta, region_low, attack_low, u_low, u_high, verdicts) arrays
    per slice, in the compare command's column order: region_low and
    verdicts hold PolicyRegion and Verdict members in object arrays, the
    rest are float arrays. The inputs are checked and both equilibria
    solved before the first slice.
    """
    r_tilde = max_policy(params)
    if not params.r_lower < r_low <= r_high <= r_tilde:
        raise DomainError(
            "intervention levels must satisfy "
            f"r_lower < r_low <= r_high <= r_tilde = {r_tilde:.9g}"
        )
    grid = np.array(theta_grid, dtype=float)
    if grid.size == 0:
        raise DomainError("theta_grid must be non-empty")
    if np.any(grid[1:] < grid[:-1]):
        raise DomainError("theta_grid must be sorted ascending")
    if not tol >= 0:
        raise DomainError("tol must be nonnegative")

    eq_low = solve_signaling(params, r_low)
    eq_high = solve_signaling(params, r_high)
    for start in range(0, len(theta_grid), _SWEEP_SLICE):
        # Rebinding grid frees the whole-grid array of the checks above.
        grid = np.array(theta_grid[start : start + _SWEEP_SLICE], dtype=float)
        u_low = ex_post_welfare(params, eq_low, grid)
        u_high = ex_post_welfare(params, eq_high, grid)
        verdicts = np.select([u_high - u_low > tol, u_low - u_high > tol], [0, 1], 2)
        yield (
            grid,
            classify_region(eq_low, grid),
            aggregate_attack_no_intervention(params, eq_low, grid),
            u_low,
            u_high,
            _VERDICTS[verdicts],
        )


def sweep(
    params: ModelParams, r_primes: list[float], thetas: list[float]
) -> Iterator[tuple[float, list[float], np.ndarray, list[float], list[float]]]:
    """Region, attack and welfare over an (r_prime, theta) grid, a slice at a time.

    Yields (r_prime, theta_slice, regions, attacks, welfares) with r_prime
    outer and theta inner: theta_slice is the next _SWEEP_SLICE points of
    thetas, regions an object array of PolicyRegion members, and attacks
    (after no intervention) and welfares lists of floats, all of its length.
    Every r_prime is solved, and so checked, before the first slice. An
    empty family yields nothing.
    """
    eqs = [solve_signaling(params, r_prime) for r_prime in r_primes]
    for r_prime, eq in zip(r_primes, eqs):
        for start in range(0, len(thetas), _SWEEP_SLICE):
            part = thetas[start : start + _SWEEP_SLICE]
            grid = np.array(part)
            yield (
                r_prime,
                part,
                classify_region(eq, grid),
                aggregate_attack_no_intervention(params, eq, grid).tolist(),
                ex_post_welfare(params, eq, grid).tolist(),
            )
