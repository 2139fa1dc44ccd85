"""Fixed-policy continuation game: closed form vs iterated dominance."""

import numpy as np
import pytest

from regimelab import (
    ConvergenceError,
    DomainError,
    ModelParams,
    attack_mass,
    best_response_cutoff,
    closed_form_thresholds,
    regime_fall_threshold,
    solve_iterated_dominance,
    success_prob_given_signal,
)

TIGHT = 1e-12
SOLVER_TOL = 1e-9

HALF = ModelParams(sigma=0.5, r_lower=0.2)
WIDE = ModelParams(sigma=3.0, r_lower=0.2)


def bisect_fall_threshold(params, x_cutoff):
    """Independent oracle: bisect attack_mass(theta) - theta on [0, 1]."""
    gap = lambda theta: attack_mass(params, x_cutoff, theta) - theta
    if gap(0.0) <= 0.0:
        return 0.0
    if gap(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClosedForm:
    def test_interior_pair(self):
        eq = closed_form_thresholds(HALF, 0.25)
        assert eq.x_cutoff == pytest.approx(1.0, abs=TIGHT)
        assert eq.theta_cutoff == pytest.approx(0.75, abs=TIGHT)

    def test_full_deterrence(self):
        eq = closed_form_thresholds(HALF, 1.0)
        assert eq.x_cutoff == pytest.approx(-0.5, abs=TIGHT)
        assert eq.theta_cutoff == 0.0

    def test_wide_noise(self):
        eq = closed_form_thresholds(WIDE, 0.5)
        assert eq.x_cutoff == pytest.approx(0.5, abs=TIGHT)
        assert eq.theta_cutoff == pytest.approx(0.5, abs=TIGHT)

    def test_rejects_policy_outside_unit_interval(self):
        for r in (-0.1, 1.1):
            with pytest.raises(DomainError, match=r"\[0,1\]"):
                closed_form_thresholds(HALF, r)


class TestAttackMass:
    def test_interior(self):
        assert attack_mass(HALF, 1.0, 1.0) == pytest.approx(0.5, abs=TIGHT)

    def test_clamps(self):
        assert attack_mass(HALF, 1.0, 0.4) == 1.0
        assert attack_mass(HALF, 1.0, 1.6) == 0.0

    def test_monotone_grid(self):
        thetas = np.linspace(-1.0, 3.0, 81)
        masses = [attack_mass(HALF, 1.0, float(t)) for t in thetas]
        assert all(b <= a for a, b in zip(masses, masses[1:]))
        cutoffs = np.linspace(-1.0, 3.0, 81)
        masses = [attack_mass(HALF, float(c), 1.0) for c in cutoffs]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


class TestSuccessProb:
    def test_marginal_agent(self):
        assert success_prob_given_signal(HALF, 0.75, 1.0) == pytest.approx(0.25, abs=TIGHT)

    def test_clamps(self):
        assert success_prob_given_signal(HALF, 0.75, 0.2) == 1.0
        assert success_prob_given_signal(HALF, 0.75, 1.3) == 0.0


class TestRegimeFallThreshold:
    def test_interior_matches_bisection(self):
        assert regime_fall_threshold(HALF, 1.0) == pytest.approx(0.75, abs=TIGHT)
        for params in (HALF, WIDE):
            for x_cutoff in np.linspace(-2.0, 4.0, 25):
                direct = regime_fall_threshold(params, float(x_cutoff))
                oracle = bisect_fall_threshold(params, float(x_cutoff))
                assert direct == pytest.approx(oracle, abs=1e-10)

    def test_corner_no_attack(self):
        assert regime_fall_threshold(HALF, -10.0) == 0.0

    def test_corner_full_attack(self):
        assert regime_fall_threshold(HALF, 10.0) == 1.0


class TestBestResponse:
    def test_fixed_point(self):
        assert best_response_cutoff(HALF, 0.25, 1.0) == pytest.approx(1.0, abs=TIGHT)

    def test_clamped_path(self):
        assert best_response_cutoff(HALF, 0.25, 3.0) == pytest.approx(1.25, abs=TIGHT)

    def test_neutral_premium(self):
        assert best_response_cutoff(HALF, 0.5, 1.0) == pytest.approx(0.75, abs=TIGHT)

    def test_contraction_on_grid(self):
        modulus = 1.0 / (1.0 + 2.0 * HALF.sigma)
        points = np.linspace(-1.0, 3.0, 17)
        for a in points:
            for b in points:
                lhs = abs(
                    best_response_cutoff(HALF, 0.3, float(a))
                    - best_response_cutoff(HALF, 0.3, float(b))
                )
                assert lhs <= abs(a - b) * modulus + TIGHT


class TestIteratedDominance:
    def test_matches_closed_form_interior(self):
        eq, trace = solve_iterated_dominance(HALF, 0.25, tol=1e-9)
        assert trace.converged
        assert eq.x_cutoff == pytest.approx(1.0, abs=1e-9)
        assert eq.theta_cutoff == pytest.approx(0.75, abs=1e-9)

    def test_matches_closed_form_wide_noise(self):
        eq, _ = solve_iterated_dominance(WIDE, 0.5, tol=1e-9)
        assert eq.x_cutoff == pytest.approx(0.5, abs=1e-9)

    def test_upper_sequence_strictly_decreasing_until_tol(self):
        _, trace = solve_iterated_dominance(HALF, 0.25, tol=1e-9)
        diffs = np.diff(trace.upper_seq)
        assert np.all(diffs[:-1] < 0.0)
        assert diffs[-1] <= 0.0

    def test_trace_invariants(self):
        for r in (0.0, 0.25, 0.5, 1.0):
            _, trace = solve_iterated_dominance(WIDE, r)
            uppers = trace.upper_seq
            lowers = trace.lower_seq
            assert all(b <= a for a, b in zip(uppers, uppers[1:]))
            assert all(b >= a for a, b in zip(lowers, lowers[1:]))
            assert all(lo <= up for lo, up in zip(lowers, uppers))
            assert trace.contraction_modulus == pytest.approx(
                1.0 / (1.0 + 2.0 * WIDE.sigma)
            )

    def test_grid_agreement_with_closed_form(self):
        for sigma in np.linspace(0.1, 5.0, 20):
            params = ModelParams(sigma=float(sigma), r_lower=0.2)
            for r in np.linspace(0.0, 1.0, 20):
                closed = closed_form_thresholds(params, float(r))
                iterated, _ = solve_iterated_dominance(params, float(r))
                assert abs(iterated.x_cutoff - closed.x_cutoff) <= SOLVER_TOL
                assert abs(iterated.theta_cutoff - closed.theta_cutoff) <= SOLVER_TOL

    def test_exhausted_budget_raises(self):
        # A tolerance below the spacing of the cutoffs: rounding stalls the
        # bracket above it, so the derived budget of 57 rounds runs out.
        with pytest.raises(ConvergenceError) as excinfo:
            solve_iterated_dominance(HALF, 0.05, 1e-16)
        trace = excinfo.value.trace
        assert trace.converged is False
        assert len(trace.upper_seq) == 58

    def test_invalid_config_rejected(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                solve_iterated_dominance(HALF, 0.25, tol)

    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 3.0, 1e6, 1e300, 8e307])
    def test_derived_budget_converges_at_every_noise_scale(self, sigma):
        params = ModelParams(sigma=sigma, r_lower=0.2)
        for r in (0.0, 0.25, 0.5, 1.0):
            eq, trace = solve_iterated_dominance(params, r)
            assert trace.converged
            assert trace.upper_seq[-1] - trace.lower_seq[-1] <= SOLVER_TOL
            # theta_cutoff = 1 - r needs no cancellation at any sigma.
            assert eq.theta_cutoff == pytest.approx(1.0 - r, abs=SOLVER_TOL)


class TestEquilibriumIdentities:
    """Fixed-point and indifference identities on a sigma x r grid."""

    @pytest.mark.parametrize("sigma", np.linspace(0.1, 5.0, 20))
    def test_identities(self, sigma):
        params = ModelParams(sigma=float(sigma), r_lower=0.2)
        for r in np.linspace(0.0, 1.0, 20):
            eq = closed_form_thresholds(params, float(r))
            mass = attack_mass(params, eq.x_cutoff, eq.theta_cutoff)
            assert abs(mass - eq.theta_cutoff) <= TIGHT
            prob = success_prob_given_signal(params, eq.theta_cutoff, eq.x_cutoff)
            assert abs(prob - r) <= TIGHT

    def test_thresholds_strictly_decreasing_in_r(self):
        for sigma in (0.1, 0.5, 3.0):
            params = ModelParams(sigma=sigma, r_lower=0.2)
            eqs = [closed_form_thresholds(params, float(r)) for r in np.linspace(0, 1, 20)]
            assert all(b.x_cutoff < a.x_cutoff for a, b in zip(eqs, eqs[1:]))
            assert all(b.theta_cutoff < a.theta_cutoff for a, b in zip(eqs, eqs[1:]))
