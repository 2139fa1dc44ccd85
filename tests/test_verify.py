"""Grid-native verify against the per-point verify it replaced.

run_verify solves the parameter grid in blocks, with sigma and r_lower on a
leading array axis. The reference below is the per-point implementation,
copied in logic: each point solved on its own, each check filtering its
family members by indexing, and np.linspace for every probe grid. Every
check's points and the raw bits of every max_error must match on the
benchmark grid, the default grid, extreme noise scales, grids around the
block size, and a block that mixes members with empty probe bands with
ordinary ones. Peak traced memory must not grow with the grid.
"""

import tracemalloc

import numpy as np
import pytest

from regimelab import (
    CheckResult,
    ModelParams,
    PolicyRegion,
    VerifyReport,
    aggregate_attack_no_intervention,
    attack_mass,
    classify_region,
    closed_form_thresholds,
    ex_post_welfare,
    max_policy,
    run_verify,
    solve_signaling,
    success_prob_given_signal,
    welfare_derivative_in_rprime,
)
from regimelab.continuation import iterated_cutoffs
from regimelab.model import cost
from regimelab.statics import _SWEEP_SLICE, critical_sigma, lower_threshold_sensitivity
from regimelab.verify import (
    _ATTACK_PROBES,
    _BLOCK,
    _CHECKS,
    _MEMBERS,
    DEFAULT_RBAR_GRID,
    DEFAULT_SIGMA_GRID,
)

# --- reference: the per-point verify ---------------------------------------------

POLICIES = np.linspace(0.0, 1.0, 21)


def ref_family_grid(params, n=25):
    r_tilde = max_policy(params)
    grid = params.r_lower + np.arange(1, n + 1) / n * (r_tilde - params.r_lower)
    grid[-1] = r_tilde
    return grid


def ref_inner_family_grid(params, h):
    grid = ref_family_grid(params)
    return grid[(params.r_lower + 2 * h < grid) & (grid < max_policy(params) - 2 * h)]


def ref_family(params, r_primes):
    return solve_signaling(params, r_primes[:, None])


def ref_worst(errors):
    return float(np.max(errors, initial=0.0))


def ref_probe_derivatives(params, eq):
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


def ref_branch_values(params, eq, theta):
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    return {
        "abandon": 0.0,
        "intervene": theta - eq.theta_lower,
        "defend": (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0,
        "no_attack": theta,
    }


def ref_checks(params, cont, eq, iterated):
    """Each check's (points, worst) at one parameter point, in _CHECKS order."""
    sigma, r_lower = params.sigma, params.r_lower
    out = []
    marginal = cont.theta_cutoff + sigma * (1.0 - 2.0 * cont.r)
    out.append((cont.r.size, ref_worst(np.hstack(
        [np.abs(cont.theta_cutoff - (1.0 - cont.r)), np.abs(cont.x_cutoff - marginal)]
    ))))
    mass = attack_mass(params, cont.x_cutoff, cont.theta_cutoff)
    out.append((cont.r.size, ref_worst(np.abs(mass - cont.theta_cutoff))))
    prob = success_prob_given_signal(params, cont.theta_cutoff, cont.x_cutoff)
    out.append((cont.r.size, ref_worst(np.abs(prob - cont.r))))
    x_it, theta_it = iterated
    out.append((cont.r.size, ref_worst(np.hstack(
        [np.abs(x_it - cont.x_cutoff), np.abs(theta_it - cont.theta_cutoff)]
    ))))
    diffs = np.hstack([np.diff(cont.x_cutoff), np.diff(cont.theta_cutoff)])
    out.append((cont.r.size - 1, float(np.max(diffs))))

    members = eq.r_prime.size
    out.append((members, ref_worst(np.abs(eq.theta_lower - cost(params, eq.r_prime)))))
    mass = attack_mass(params, eq.x_prime, eq.theta_upper)
    out.append((members, ref_worst(np.abs(mass - eq.theta_lower))))
    lo = eq.theta_upper + 2.0 * sigma * (eq.theta_lower - 1.0)
    thetas = np.linspace(lo[:, 0] - 1.0, eq.theta_no_attack[:, 0] + 1.0, 41, axis=-1)
    piecewise = aggregate_attack_no_intervention(params, eq, thetas)
    ramp = attack_mass(params, eq.x_prime, thetas)
    out.append((thetas.size, ref_worst(np.abs(piecewise - ramp))))
    alt = 2.0 * sigma + (1.0 - 2.0 * sigma * r_lower / (1.0 - r_lower)) * eq.theta_lower
    out.append((members, ref_worst(np.abs(eq.theta_no_attack - alt))))
    gaps = np.hstack(
        [
            eq.theta_lower - eq.theta_upper,
            eq.theta_upper - eq.theta_no_attack,
            eq.theta_lower - (1.0 - r_lower),
        ]
    )
    out.append((members, ref_worst(gaps)))

    at_lower = ref_branch_values(params, eq, eq.theta_lower)
    at_upper = ref_branch_values(params, eq, eq.theta_upper)
    at_top = ref_branch_values(params, eq, eq.theta_no_attack)
    gaps = np.hstack(
        [
            np.abs(at_lower["abandon"] - at_lower["intervene"]),
            np.abs(at_upper["intervene"] - at_upper["defend"]),
            np.abs(at_top["defend"] - at_top["no_attack"]),
        ]
    )
    out.append((gaps.size, ref_worst(gaps)))
    banded = ref_family(params, eq.r_prime[eq.theta_no_attack > eq.theta_upper])
    band = np.linspace(banded.theta_upper[:, 0], banded.theta_no_attack[:, 0], 21, axis=-1)
    thetas = band[:, :-1]
    direct = ex_post_welfare(params, banded, thetas)
    via_attack = thetas - aggregate_attack_no_intervention(params, banded, thetas)
    out.append((thetas.size, ref_worst(np.abs(direct - via_attack))))

    noisy = sigma > critical_sigma(params)
    points, deriv, counted = ref_probe_derivatives(params, eq)
    region = classify_region(eq, points)
    violation = np.select(
        [region == PolicyRegion.INTERVENE, region == PolicyRegion.DEFEND_UNDER_ATTACK],
        [deriv, -deriv if noisy else deriv],
        np.abs(deriv),
    )
    out.append((int(counted.sum()), ref_worst(violation[counted])))
    h = 1e-5
    inner = ref_inner_family_grid(params, h)
    eq_mid, eq_lo, eq_hi = (ref_family(params, r) for r in (inner, inner - h, inner + h))
    points, analytic, counted = ref_probe_derivatives(params, eq_mid)
    fd = (ex_post_welfare(params, eq_hi, points) - ex_post_welfare(params, eq_lo, points)) / (
        2.0 * h
    )
    out.append((int(counted.sum()), ref_worst(np.abs(analytic - fd)[counted])))
    h = 1e-6
    inner = ref_inner_family_grid(params, h)
    analytic = lower_threshold_sensitivity(params, inner)
    fd = (
        solve_signaling(params, inner + h).theta_lower
        - solve_signaling(params, inner - h).theta_lower
    ) / (2.0 * h)
    out.append((inner.size, ref_worst(np.abs(analytic - fd))))
    return out


@np.errstate(over="ignore", invalid="ignore")
def ref_run_verify(params_list):
    sigmas = np.array([params.sigma for params in params_list])
    iterated, _ = iterated_cutoffs(sigmas[:, None], POLICIES, 1e-9)
    points = [0] * len(_CHECKS)
    worst = [-np.inf] * len(_CHECKS)
    for k, params in enumerate(params_list):
        cont = closed_form_thresholds(params, POLICIES)
        eq = ref_family(params, ref_family_grid(params))
        rows = (iterated.x_cutoff[k], iterated.theta_cutoff[k])
        for i, (n, err) in enumerate(ref_checks(params, cont, eq, rows)):
            points[i] += n
            worst[i] = np.maximum(worst[i], err)
    return VerifyReport(
        results=tuple(
            CheckResult(name, bool(err <= tol), n, float(err) if np.isfinite(err) else None, tol)
            for (name, _, tol), n, err in zip(_CHECKS, points, worst)
            if n
        )
    )


# --- grids -------------------------------------------------------------------------

BENCH_SIGMAS = (0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20)
BENCH_RBARS = np.arange(1, 19) / 20
BENCH_GRID = [ModelParams(s, float(rb)) for s in BENCH_SIGMAS for rb in BENCH_RBARS]
DEFAULT_GRID = [ModelParams(s, rb) for s in DEFAULT_SIGMA_GRID for rb in DEFAULT_RBAR_GRID]
# Close to 1, the first family members' theta_lower is below half an ulp of
# theta_upper, so their defend band [theta_upper, theta_no_attack] is empty.
NEAR_ONE = 1.0 - 1e-14


def bits(value):
    return None if value is None else np.float64(value).view(np.int64).item()


def as_rows(report):
    return [
        (res.name, res.passed, res.points, bits(res.max_error), res.tolerance)
        for res in report.results
    ]


def assert_matches_reference(grid):
    assert as_rows(run_verify(grid)) == as_rows(ref_run_verify(grid))


# --- tests ----------------------------------------------------------------------


class TestGridMatchesPerPointVerify:
    def test_block_is_fifteen_points(self):
        assert _BLOCK == 15

    def test_block_keeps_its_own_budget(self):
        # The largest check array, points x 25 members x 41 probes, fills
        # verify's own 16,384 doubles, not the smaller statics sweep slice.
        probes = _MEMBERS * _ATTACK_PROBES
        assert _BLOCK == 15
        assert _BLOCK * probes <= 16_384 < (_BLOCK + 1) * probes
        assert _SWEEP_SLICE // probes < _BLOCK

    def test_benchmark_grid(self):
        assert len(BENCH_GRID) == 306
        assert_matches_reference(BENCH_GRID)

    def test_default_grid(self):
        assert_matches_reference(DEFAULT_GRID)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 1e6, 5e307])
    def test_extreme_sigma(self, sigma):
        # Past r_lower = 0.35 the signalling thresholds overflow at 5e307.
        assert_matches_reference([ModelParams(sigma, rb) for rb in (0.05, 0.2, 0.35)])

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_ordering_gaps_all_below_zero(self, sigma):
        # At r_lower = 0.9 every signalling.ordering gap of the one point is
        # negative, so only the floor at zero gives its max_error of 0.0.
        assert_matches_reference([ModelParams(sigma, 0.9)])

    def test_extreme_sigmas_in_one_block(self):
        grid = [ModelParams(s, 0.2) for s in (1e6, 1e-3, 5e307, 0.5)]
        assert_matches_reference(grid)

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_grids_around_the_block_size(self, size):
        # Every sixth benchmark point, so a block spans several sigmas.
        assert_matches_reference(BENCH_GRID[::6][:size])

    def test_empty_defend_bands_beside_ordinary_members(self):
        near = ModelParams(0.5, NEAR_ONE)
        eq = solve_signaling(near, ref_family_grid(near)[:, None])
        empty = (eq.theta_no_attack <= eq.theta_upper)[:, 0]
        assert 0 < empty.sum() < empty.size
        # The worst branch-consistency error at (1, 0.01) is 4.4e-16 from its
        # own probe grid, and 8.9e-16 from the formula np.linspace switches
        # to for a whole batch when one member's band is empty.
        grid = [ModelParams(1.0, 0.01), near, ModelParams(0.5, 0.35)]
        assert_matches_reference(grid)


class TestMemory:
    @staticmethod
    def peak(grid):
        run_verify(grid[:1])
        tracemalloc.start()
        try:
            report = run_verify(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_failed == 0
        return peak

    def test_peak_does_not_grow_with_the_grid(self):
        # A block's arrays, at most 16,384 doubles each, hold the peak near
        # 0.6 MiB at any grid length; one dominance oracle for the whole
        # large grid would take 6.6 MiB.
        bound = 2**20
        large = BENCH_GRID * 10
        assert len(large) == 3060
        assert self.peak(BENCH_GRID) < bound
        assert self.peak(large) < bound

