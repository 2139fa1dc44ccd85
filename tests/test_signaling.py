"""Signalling-equilibrium thresholds, attack curve, and welfare."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelab import (
    DomainError,
    ModelParams,
    PolicyRegion,
    aggregate_attack_no_intervention,
    attack_mass,
    classify_region,
    cost,
    ex_post_welfare,
    max_policy,
    solve_signaling,
)

TIGHT = 1e-12

HALF = ModelParams(sigma=0.5, r_lower=0.2)
WIDE = ModelParams(sigma=3.0, r_lower=0.2)


def family_grid(params, n=100):
    """n intervention levels spanning (r_lower, r_tilde], top included exactly."""
    r_tilde = max_policy(params)
    grid = [
        params.r_lower + (k + 1) / n * (r_tilde - params.r_lower) for k in range(n - 1)
    ]
    grid.append(r_tilde)
    return grid


class TestMaxPolicy:
    def test_half_baseline(self):
        assert max_policy(ModelParams(sigma=1.0, r_lower=0.5)) == pytest.approx(
            1.5, abs=TIGHT
        )

    def test_fifth_baseline(self):
        assert max_policy(HALF) == pytest.approx(1.4649111, abs=1e-6)

    def test_cost_identity(self):
        for r_lower in (0.1, 0.2, 0.5, 0.9):
            params = ModelParams(sigma=1.0, r_lower=r_lower)
            assert cost(params, max_policy(params)) == pytest.approx(
                1.0 - r_lower, abs=TIGHT
            )


class TestSolveSignaling:
    def test_narrow_noise_bundle(self):
        eq = solve_signaling(HALF, 0.8)
        assert eq.theta_lower == pytest.approx(0.18, abs=TIGHT)
        assert eq.theta_upper == pytest.approx(0.955, abs=TIGHT)
        assert eq.x_prime == pytest.approx(0.635, abs=TIGHT)
        assert eq.theta_no_attack == pytest.approx(1.135, abs=TIGHT)

    def test_wide_noise_bundle(self):
        eq = solve_signaling(WIDE, 0.8)
        assert eq.theta_lower == pytest.approx(0.18, abs=TIGHT)
        assert eq.theta_upper == pytest.approx(4.83, abs=TIGHT)
        assert eq.x_prime == pytest.approx(2.91, abs=TIGHT)
        assert eq.theta_no_attack == pytest.approx(5.91, abs=TIGHT)

    def test_top_of_family_degenerates(self):
        eq = solve_signaling(HALF, max_policy(HALF))
        assert eq.theta_lower == pytest.approx(0.8, abs=TIGHT)
        assert eq.theta_lower == pytest.approx(1.0 - HALF.r_lower, abs=TIGHT)
        assert eq.theta_upper == pytest.approx(eq.theta_lower, abs=TIGHT)

    def test_baseline_is_rejected(self):
        with pytest.raises(DomainError, match="r_prime"):
            solve_signaling(HALF, HALF.r_lower)

    def test_above_top_is_rejected(self):
        with pytest.raises(DomainError, match="r_prime"):
            solve_signaling(HALF, max_policy(HALF) + 1e-9)


class TestPolicyStrategy:
    # The equilibrium policy is r_prime exactly where classify_region says
    # INTERVENE, and the baseline r_lower everywhere else.
    def test_intervenes_inside_band(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, 1.0) is PolicyRegion.INTERVENE

    def test_baseline_below_band(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, 0.1) is PolicyRegion.ABANDON

    def test_baseline_above_band(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, 6.0) is PolicyRegion.NO_ATTACK

    def test_band_is_closed(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, eq.theta_lower) is PolicyRegion.INTERVENE
        assert classify_region(eq, eq.theta_upper) is PolicyRegion.INTERVENE
        assert classify_region(eq, np.nextafter(eq.theta_lower, -np.inf)) is PolicyRegion.ABANDON
        after = np.nextafter(eq.theta_upper, np.inf)
        assert classify_region(eq, after) is PolicyRegion.DEFEND_UNDER_ATTACK


class TestAggregateAttack:
    def test_ramp_value(self):
        eq = solve_signaling(WIDE, 0.8)
        assert aggregate_attack_no_intervention(WIDE, eq, 5.0) == pytest.approx(
            0.1516667, abs=1e-6
        )

    def test_indifference_at_theta_upper(self):
        eq = solve_signaling(WIDE, 0.8)
        assert aggregate_attack_no_intervention(WIDE, eq, eq.theta_upper) == pytest.approx(
            eq.theta_lower, abs=TIGHT
        )

    def test_vanishes_beyond_no_attack_threshold(self):
        eq = solve_signaling(WIDE, 0.8)
        assert aggregate_attack_no_intervention(WIDE, eq, 6.5) == 0.0

    def test_matches_cutoff_ramp_everywhere(self):
        # Dual route: the piecewise curve is the clamped ramp at cutoff x_prime.
        for params in (HALF, WIDE):
            for r_prime in family_grid(params, 20):
                eq = solve_signaling(params, r_prime)
                for theta in np.linspace(-1.0, eq.theta_no_attack + 2.0, 60):
                    piecewise = aggregate_attack_no_intervention(params, eq, float(theta))
                    ramp = attack_mass(params, eq.x_prime, float(theta))
                    assert abs(piecewise - ramp) <= TIGHT

    def test_full_attack_at_the_bottom(self):
        eq = solve_signaling(WIDE, 0.8)
        bottom = eq.theta_upper + 2 * WIDE.sigma * (eq.theta_lower - 1.0)
        assert aggregate_attack_no_intervention(WIDE, eq, bottom - 0.01) == 1.0


class TestWelfare:
    def test_intervene_branch(self):
        eq = solve_signaling(WIDE, 0.8)
        assert ex_post_welfare(WIDE, eq, 1.0) == pytest.approx(0.82, abs=TIGHT)

    def test_defend_branch(self):
        eq = solve_signaling(WIDE, 0.8)
        assert ex_post_welfare(WIDE, eq, 5.0) == pytest.approx(4.8483333, abs=1e-6)

    def test_abandon_branch(self):
        eq = solve_signaling(WIDE, 0.8)
        assert ex_post_welfare(WIDE, eq, 0.1) == 0.0

    def test_defend_equals_theta_minus_attack(self):
        for params in (HALF, WIDE):
            for r_prime in family_grid(params, 20):
                eq = solve_signaling(params, r_prime)
                band = np.linspace(eq.theta_upper, eq.theta_no_attack, 30)[:-1]
                for theta in band:
                    direct = ex_post_welfare(params, eq, float(theta))
                    indirect = float(theta) - aggregate_attack_no_intervention(
                        params, eq, float(theta)
                    )
                    assert abs(direct - indirect) <= TIGHT

    def test_continuity_at_cutoffs(self):
        # Adjacent branch formulas evaluated at each cutoff must agree.
        for params in (HALF, WIDE):
            for r_prime in family_grid(params, 20):
                eq = solve_signaling(params, r_prime)
                inv = 1.0 / (2.0 * params.sigma)
                ratio = params.r_lower / (1.0 - params.r_lower)
                defend = lambda t: (1.0 + inv) * t - (inv - ratio) * eq.theta_lower - 1.0
                intervene_at_lower = eq.theta_lower - eq.theta_lower
                assert abs(0.0 - intervene_at_lower) <= TIGHT
                assert abs((eq.theta_upper - eq.theta_lower) - defend(eq.theta_upper)) <= TIGHT
                assert abs(defend(eq.theta_no_attack) - eq.theta_no_attack) <= TIGHT


class TestRegions:
    def test_defend_point(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, 5.0) is PolicyRegion.DEFEND_UNDER_ATTACK

    def test_boundary_inclusion(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, eq.theta_lower) is PolicyRegion.INTERVENE
        assert classify_region(eq, eq.theta_no_attack) is PolicyRegion.NO_ATTACK

    def test_partition_order(self):
        eq = solve_signaling(WIDE, 0.8)
        assert classify_region(eq, -1.0) is PolicyRegion.ABANDON
        assert classify_region(eq, eq.theta_upper) is PolicyRegion.INTERVENE
        assert classify_region(eq, eq.theta_upper + 1e-9) is PolicyRegion.DEFEND_UNDER_ATTACK


class TestFamilyInvariants:
    @pytest.mark.parametrize("params", [HALF, WIDE, ModelParams(3.0, 0.5)])
    def test_thresholds_and_identities(self, params):
        r_tilde = max_policy(params)
        for r_prime in family_grid(params):
            eq = solve_signaling(params, r_prime)
            assert eq.theta_lower == cost(params, r_prime)
            assert 0.0 < eq.theta_lower <= 1.0 - params.r_lower + TIGHT
            assert eq.theta_lower <= eq.theta_upper + TIGHT
            assert eq.theta_upper <= eq.theta_no_attack + TIGHT
            alt = 2.0 * params.sigma + (
                1.0 - 2.0 * params.sigma * params.r_lower / (1.0 - params.r_lower)
            ) * eq.theta_lower
            assert abs(eq.theta_no_attack - alt) <= TIGHT
            assert abs(eq.theta_no_attack - (eq.theta_upper + 2 * params.sigma * eq.theta_lower)) <= TIGHT
            if r_prime != r_tilde:
                assert eq.theta_lower < 1.0 - params.r_lower


# --- the evaluators as np.select forms: the reference for their np.where chains


def select_attack(params, eq, theta):
    sigma = params.sigma
    full_attack_below = eq.theta_upper + 2.0 * sigma * (eq.theta_lower - 1.0)
    raw = eq.theta_lower + (eq.theta_upper - theta) / (2.0 * sigma)
    ramp = np.select([raw >= 1.0, raw > 0.0], [1.0, raw], 0.0)
    return np.select([theta < full_attack_below, theta >= eq.theta_no_attack], [1.0, 0.0], ramp)


def select_welfare(params, eq, theta):
    inv = 1.0 / (2.0 * params.sigma)
    ratio = params.r_lower / (1.0 - params.r_lower)
    defend = (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0
    return np.select(
        [theta < eq.theta_lower, theta < eq.theta_upper, theta < eq.theta_no_attack],
        [0.0, theta - eq.theta_lower, defend],
        theta,
    )


def select_region(eq, theta):
    index = np.select(
        [theta < eq.theta_lower, theta <= eq.theta_upper, theta < eq.theta_no_attack],
        [0, 1, 2],
        3,
    )
    return np.array(list(PolicyRegion), dtype=object)[index]


@st.composite
def family_and_thetas(draw):
    """Parameters, 1-3 family members, and theta anywhere and around every cutoff."""
    params = ModelParams(sigma=draw(st.floats(0.01, 20.0)), r_lower=draw(st.floats(0.01, 0.99)))
    r_tilde = max_policy(params)
    span = r_tilde - params.r_lower
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3))
    r_primes = np.array([min(params.r_lower + f * span, r_tilde) for f in fractions])
    thetas = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
    for r_prime in r_primes.tolist():
        eq = solve_signaling(params, r_prime)
        full = eq.theta_upper + 2.0 * params.sigma * (eq.theta_lower - 1.0)
        for cutoff in (eq.theta_lower, eq.theta_upper, eq.theta_no_attack, full):
            thetas += [math.nextafter(cutoff, -math.inf), cutoff, math.nextafter(cutoff, math.inf)]
    return params, r_primes, np.array(thetas)


CURVES = ((ex_post_welfare, select_welfare), (aggregate_attack_no_intervention, select_attack))


class TestWhereChainsMatchSelect:
    @settings(max_examples=150, deadline=None)
    @given(family_and_thetas())
    def test_every_bit_for_broadcast_and_scalar_theta(self, case):
        params, r_primes, thetas = case
        family = solve_signaling(params, r_primes[:, None])
        eq = solve_signaling(params, float(r_primes[0]))
        with np.errstate(all="ignore"):
            for fn, ref in CURVES:
                assert fn(params, family, thetas).tobytes() == ref(params, family, thetas).tobytes()
            regions = classify_region(family, thetas)
            assert regions.tolist() == select_region(family, thetas).tolist()
            for theta in thetas.tolist():
                for fn, ref in CURVES:
                    value = fn(params, eq, theta)
                    assert type(value) is float
                    assert np.float64(value).tobytes() == ref(params, eq, theta).tobytes()
                assert classify_region(eq, theta) is select_region(eq, theta)
