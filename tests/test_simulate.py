"""Finite-agent Monte Carlo against the continuum quantities."""

import math

import numpy as np
import pytest

from regimelab import (
    ConvergenceError,
    DomainError,
    ModelParams,
    RegimeDecision,
    SimConfig,
    attack_mass,
    closed_form_thresholds,
    finite_best_response,
    simulate_continuation,
    simulate_signaling,
    solve_signaling,
)
from regimelab.model import cost, policymaker_payoff
from regimelab.simulate import _STREAM_REPS, RepResult, _aggregate, _sub_seed

HALF = ModelParams(sigma=0.5, r_lower=0.2)
WIDE = ModelParams(sigma=3.0, r_lower=0.2)

BIG = SimConfig(n_agents=100_000, n_reps=20, master_seed=42)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n_agents=0, n_reps=1, master_seed=1)
        with pytest.raises(DomainError):
            SimConfig(n_agents=1, n_reps=0, master_seed=1)
        with pytest.raises(DomainError):
            SimConfig(n_agents=1, n_reps=1, master_seed=-1)
        with pytest.raises(DomainError):
            SimConfig(n_agents=1, n_reps=1, master_seed=2**64)
        # Above 1e8 agents a replication would hold more than 1.7 GB.
        SimConfig(n_agents=10**8, n_reps=1, master_seed=1)
        with pytest.raises(DomainError):
            SimConfig(n_agents=10**8 + 1, n_reps=1, master_seed=1)


class TestSimulateContinuation:
    def test_interior_point_unbiased(self):
        outcome = simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG)
        assert abs(outcome.alpha_mean - 0.5) <= 0.01
        assert 0.0 < outcome.alpha_halfwidth < 0.005
        assert outcome.fall_frequency == 0.0

    def test_upper_dominance_exact(self):
        outcome = simulate_continuation(HALF, 0.25, 2.0, 1.0, BIG)
        assert outcome.alpha_mean == 0.0
        assert outcome.fall_frequency == 0.0
        assert outcome.alpha_halfwidth == 0.0

    def test_lower_dominance_exact(self):
        outcome = simulate_continuation(HALF, 0.25, 0.4, 1.0, BIG)
        assert outcome.alpha_mean == 1.0
        assert outcome.fall_frequency == 1.0

    def test_fall_rule_at_clear_points(self):
        # attack_mass(0.74) = 0.76 > theta + 0.01: the regime must fall.
        assert attack_mass(HALF, 1.0, 0.74) == pytest.approx(0.76)
        assert simulate_continuation(HALF, 0.25, 0.74, 1.0, BIG).fall_frequency == 1.0
        # attack_mass(0.76) = 0.74 < theta - 0.01: the regime must survive.
        assert simulate_continuation(HALF, 0.25, 0.76, 1.0, BIG).fall_frequency == 0.0

    def test_welfare_scored_at_realized_attack(self):
        outcome = simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG)
        reps = outcome.per_rep
        assert len(reps) == BIG.n_reps
        for rep in reps:
            assert rep.decision is RegimeDecision.MAINTAIN
            expected = (1.0 - rep.alpha) - 0.5 * (0.25 - 0.2) ** 2
            assert rep.welfare == pytest.approx(expected, abs=1e-12)

    def test_bit_identical_reruns(self):
        first = simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG)
        second = simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG)
        assert first == second

    def test_different_seeds_differ(self):
        other = SimConfig(n_agents=BIG.n_agents, n_reps=BIG.n_reps, master_seed=43)
        assert simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG) != simulate_continuation(
            HALF, 0.25, 1.0, 1.0, other
        )


class TestSimulateSignaling:
    def test_on_path_intervention_is_deterministic(self):
        eq = solve_signaling(WIDE, 0.8)
        outcome = simulate_signaling(WIDE, eq, 1.0, BIG)
        assert outcome.alpha_mean == 0.0
        assert outcome.alpha_halfwidth == 0.0
        assert outcome.fall_frequency == 0.0
        assert outcome.welfare_mean == pytest.approx(0.82, abs=1e-12)

    def test_off_path_attack_matches_analytic(self):
        eq = solve_signaling(WIDE, 0.8)
        config = SimConfig(n_agents=100_000, n_reps=20, master_seed=7)
        outcome = simulate_signaling(WIDE, eq, 5.0, config)
        assert abs(outcome.alpha_mean - 0.1516667) <= 0.01
        assert outcome.fall_frequency == 0.0

    def test_weak_fundamental_falls(self):
        eq = solve_signaling(WIDE, 0.8)
        config = SimConfig(n_agents=1000, n_reps=20, master_seed=7)
        outcome = simulate_signaling(WIDE, eq, 0.05, config)
        assert outcome.fall_frequency == 1.0


# --- reference: the per-theta Monte Carlo the grid routine replaced ----------


def ref_simulate_continuation(params, r, theta, x_cutoff, config):
    reps = []
    for k in range(config.n_reps):
        rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
        signals = theta + rng.uniform(-params.sigma, params.sigma, config.n_agents)
        alpha = float(np.count_nonzero(signals <= x_cutoff)) / config.n_agents
        decision = (
            RegimeDecision.ABANDON if theta <= alpha else RegimeDecision.MAINTAIN
        )
        welfare = policymaker_payoff(params, r, decision, theta, alpha)
        reps.append(RepResult(alpha=alpha, decision=decision, welfare=welfare))
    return _aggregate(reps)


def ref_simulate_signaling(params, eq, theta, config):
    if eq.theta_lower <= theta <= eq.theta_upper:
        rep = RepResult(
            alpha=0.0,
            decision=RegimeDecision.MAINTAIN,
            welfare=theta - cost(params, eq.r_prime),
        )
        return _aggregate([rep] * config.n_reps)
    return ref_simulate_continuation(params, params.r_lower, theta, eq.x_prime, config)


def _around(*points):
    """Each point and one ulp either side of it."""
    return [q for p in points for q in (math.nextafter(p, -math.inf), p,
                                        math.nextafter(p, math.inf))]


@pytest.fixture
def rng_calls(monkeypatch):
    """Count default_rng constructions made through numpy.random."""
    calls = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls


class TestGridMatchesPerThetaCode:
    @pytest.mark.parametrize("n_reps", [1, 4])
    def test_signaling_grid_across_band_edges(self, n_reps):
        eq = solve_signaling(WIDE, 0.8)
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=9)
        grid = [-1.0, 0.05, *_around(eq.theta_lower), 2.0,
                *_around(eq.theta_upper), 5.0, 8.0]
        assert simulate_signaling(WIDE, eq, grid, config) == tuple(
            ref_simulate_signaling(WIDE, eq, t, config) for t in grid
        )

    @pytest.mark.parametrize("n_reps", [1, 5])
    def test_continuation_grid(self, n_reps):
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=42)
        x_cutoff = closed_form_thresholds(HALF, 0.25).x_cutoff
        grid = [0.05 * k for k in range(21)] + _around(0.75, x_cutoff - 0.5, x_cutoff + 0.5)
        assert simulate_continuation(HALF, 0.25, grid, x_cutoff, config) == tuple(
            ref_simulate_continuation(HALF, 0.25, t, x_cutoff, config) for t in grid
        )

    def test_scalar_theta_returns_one_outcome(self):
        config = SimConfig(n_agents=3000, n_reps=3, master_seed=1)
        outcome = simulate_continuation(HALF, 0.25, 0.9, 1.0, config)
        assert outcome == ref_simulate_continuation(HALF, 0.25, 0.9, 1.0, config)
        (single,) = simulate_continuation(HALF, 0.25, [0.9], 1.0, config)
        assert single == outcome

    def test_one_panel_per_replication(self, rng_calls):
        config = SimConfig(n_agents=1000, n_reps=6, master_seed=3)
        simulate_continuation(HALF, 0.25, [0.1 * k for k in range(11)], 1.0, config)
        assert rng_calls == [(_sub_seed(3, _STREAM_REPS, k),) for k in range(6)]

    def test_grid_on_the_band_draws_nothing(self, rng_calls):
        eq = solve_signaling(WIDE, 0.8)
        grid = [eq.theta_lower, 1.0, 3.0, eq.theta_upper]
        outcomes = simulate_signaling(WIDE, eq, grid, BIG)
        assert rng_calls == []
        assert [o.alpha_mean for o in outcomes] == [0.0] * len(grid)
        assert simulate_continuation(HALF, 0.25, [], 1.0, BIG) == ()
        assert rng_calls == []


class TestFiniteBestResponse:
    def test_recovers_interior_cutoff(self):
        config = SimConfig(n_agents=100_000, n_reps=1, master_seed=11)
        estimate = finite_best_response(HALF, 0.25, config, iters=50)
        assert abs(estimate - 1.0) <= 0.02

    def test_recovers_wide_noise_cutoff(self):
        config = SimConfig(n_agents=100_000, n_reps=1, master_seed=11)
        estimate = finite_best_response(WIDE, 0.5, config, iters=50)
        assert abs(estimate - 0.5) <= 0.02

    def test_full_deterrence_drifts_to_no_attackers(self):
        config = SimConfig(n_agents=100_000, n_reps=1, master_seed=11)
        estimate = finite_best_response(HALF, 1.0, config, iters=200)
        target = closed_form_thresholds(HALF, 1.0).x_cutoff
        assert estimate <= target + 0.02

    def test_deterministic(self):
        config = SimConfig(n_agents=10_000, n_reps=1, master_seed=5)
        assert finite_best_response(HALF, 0.25, config, iters=50) == finite_best_response(
            HALF, 0.25, config, iters=50
        )

    def test_budget_of_one_iteration_raises(self):
        # One step from the dominance start cannot land inside the settle band.
        config = SimConfig(n_agents=100_000, n_reps=1, master_seed=11)
        with pytest.raises(ConvergenceError):
            finite_best_response(HALF, 0.25, config, iters=1)

    def test_invalid_inputs_rejected(self):
        config = SimConfig(n_agents=100, n_reps=1, master_seed=1)
        with pytest.raises(DomainError):
            finite_best_response(HALF, 1.5, config, iters=10)
        with pytest.raises(DomainError):
            finite_best_response(HALF, 0.5, config, iters=0)
