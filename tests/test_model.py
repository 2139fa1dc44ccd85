"""Payoff and cost primitives."""

import numpy as np
import pytest

from regimelab import (
    DomainError,
    ModelParams,
    cost,
    max_policy,
    policymaker_payoff,
)

TOL = 1e-12

PARAMS = ModelParams(sigma=0.5, r_lower=0.2)


class TestValidateParams:
    # ModelParams validates its primitives on construction.
    def test_in_range(self):
        params = ModelParams(0.5, 0.2)
        assert params.sigma == 0.5
        assert params.r_lower == 0.2

    def test_zero_sigma_rejected(self):
        with pytest.raises(DomainError, match="sigma must be positive"):
            ModelParams(0.0, 0.2)

    def test_unit_rbar_rejected(self):
        with pytest.raises(DomainError, match=r"r_lower must lie in \(0,1\)"):
            ModelParams(0.5, 1.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(float("nan"), 0.2)


class TestCost:
    def test_zero_at_baseline(self):
        assert cost(PARAMS, 0.2) == 0.0

    def test_hand_value(self):
        # 0.6^2 / 2, cross-checked below by the convexity finite difference.
        assert cost(PARAMS, 0.8) == pytest.approx(0.18, abs=TOL)

    def test_second_difference_is_one(self):
        # Quadratic with curvature 1: central second difference recovers it.
        h = 0.25
        for r in (0.3, 0.8, 1.2):
            second = (cost(PARAMS, r + h) - 2 * cost(PARAMS, r) + cost(PARAMS, r - h)) / h**2
            assert second == pytest.approx(1.0, abs=TOL)

    def test_cost_at_max_policy_matches_survival_value(self):
        for r_lower in (0.2, 0.5, 0.8):
            params = ModelParams(sigma=1.0, r_lower=r_lower)
            assert cost(params, max_policy(params)) == pytest.approx(
                1.0 - r_lower, abs=TOL
            )

    def test_negative_r_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            cost(PARAMS, -0.1)

    def test_nonnegative_with_unique_zero_on_grid(self):
        rs = np.linspace(0.0, 3.0, 1000)
        values = [cost(PARAMS, float(r)) for r in rs]
        assert all(v >= 0.0 for v in values)
        zeros = [float(r) for r, v in zip(rs, values) if v == 0.0]
        assert zeros == [] or all(abs(z - PARAMS.r_lower) < 2e-3 for z in zeros)
        assert cost(PARAMS, PARAMS.r_lower) == 0.0


class TestPolicymakerPayoff:
    def test_abandon_at_baseline_cost(self):
        value = policymaker_payoff(PARAMS, 0.2, True, 0.5, 1.0)
        assert value == 0.0

    def test_maintain_nets_theta_minus_attack_minus_cost(self):
        value = policymaker_payoff(PARAMS, 0.8, False, 1.0, 0.0)
        assert value == pytest.approx(0.82, abs=TOL)

    def test_abandon_pays_only_the_cost(self):
        value = policymaker_payoff(PARAMS, 0.8, True, 5.0, 0.3)
        assert value == pytest.approx(-0.18, abs=TOL)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="alpha"):
            policymaker_payoff(PARAMS, 0.2, False, 0.5, 1.5)

    def test_abandon_independent_of_theta_and_alpha(self):
        base = policymaker_payoff(PARAMS, 0.8, True, 0.0, 0.0)
        for theta in np.linspace(-5.0, 5.0, 11):
            for alpha in np.linspace(0.0, 1.0, 11):
                assert policymaker_payoff(PARAMS, 0.8, True, float(theta), float(alpha)) == base

    def test_maintain_slopes(self):
        # Payoff is affine: slope +1 in theta, -1 in alpha.
        h = 0.25
        for theta in (-1.0, 0.5, 3.0):
            for alpha in (0.0, 0.25, 0.5):
                up = policymaker_payoff(PARAMS, 0.8, False, theta + h, alpha)
                at = policymaker_payoff(PARAMS, 0.8, False, theta, alpha)
                assert (up - at) / h == pytest.approx(1.0, abs=TOL)
                shifted = policymaker_payoff(PARAMS, 0.8, False, theta, alpha + h)
                assert (shifted - at) / h == pytest.approx(-1.0, abs=TOL)

    def test_broadcast_arrays(self):
        # A column of decisions and thetas against a row of alphas: each cell
        # is the scalar payoff of its own arguments.
        abandon = np.array([[True], [False], [False]])
        theta = np.array([[0.1], [0.5], [2.0]])
        alpha = np.array([0.0, 0.25, 1.0])
        values = policymaker_payoff(PARAMS, 0.8, abandon, theta, alpha)
        assert values.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert values[i, j] == policymaker_payoff(
                    PARAMS, 0.8, bool(abandon[i, 0]), float(theta[i, 0]), float(alpha[j])
                )
        assert np.all(values[0] == -cost(PARAMS, 0.8))
        assert type(policymaker_payoff(PARAMS, 0.8, False, 1.0, 0.0)) is float
        with pytest.raises(DomainError, match="alpha"):
            policymaker_payoff(PARAMS, 0.8, abandon, theta, np.array([0.0, np.nan]))
