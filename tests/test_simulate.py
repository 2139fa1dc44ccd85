"""Finite-agent Monte Carlo against the continuum quantities."""

import math

import numpy as np
import pytest

from regimelab import (
    ConvergenceError,
    DomainError,
    ModelParams,
    SimConfig,
    attack_mass,
    closed_form_thresholds,
    finite_best_response,
    simulate_continuation,
    simulate_signaling,
    solve_signaling,
)
from regimelab.model import cost
from regimelab.simulate import _STREAM_REPS, _sub_seed

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
        # The regime survives every replication at theta = 1, so each one
        # scores theta - alpha - cost, and their mean is 1 - alpha_mean - cost.
        outcome = simulate_continuation(HALF, 0.25, 1.0, 1.0, BIG)
        assert outcome.fall_frequency == 0.0
        assert 0.0 < outcome.alpha_mean < 1.0
        expected = (1.0 - outcome.alpha_mean) - cost(HALF, 0.25)
        assert outcome.welfare_mean == pytest.approx(expected, abs=1e-12)

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
# A self-contained copy of the scalar code: one theta at a time, one
# replication at a time, aggregated from Python lists.

FIELDS = ("alpha_mean", "alpha_halfwidth", "fall_frequency", "welfare_mean")
Z99 = 2.5758293035489004


def ref_aggregate(alphas, falls, welfares):
    n = len(alphas)
    halfwidth = Z99 * float(np.std(np.array(alphas), ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return {
        "alpha_mean": float(np.mean(np.array(alphas))),
        "alpha_halfwidth": halfwidth,
        "fall_frequency": sum(falls) / n,
        "welfare_mean": float(np.mean(welfares)),
    }


def ref_payoff(params, r, abandon, theta, alpha):
    d = r - params.r_lower
    c = 0.5 * d * d
    return -c if abandon else (theta - alpha) - c


def ref_simulate_continuation(params, r, theta, x_cutoff, config):
    alphas, falls, welfares = [], [], []
    for k in range(config.n_reps):
        rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
        signals = theta + rng.uniform(-params.sigma, params.sigma, config.n_agents)
        alpha = float(np.count_nonzero(signals <= x_cutoff)) / config.n_agents
        abandon = theta <= alpha
        alphas.append(alpha)
        falls.append(abandon)
        welfares.append(ref_payoff(params, r, abandon, theta, alpha))
    return ref_aggregate(alphas, falls, welfares)


def ref_simulate_signaling(params, eq, theta, config):
    if eq.theta_lower <= theta <= eq.theta_upper:
        # Deterministic on the band: nobody attacks, the regime stands, and
        # the policymaker nets theta - cost(r_prime) in every replication.
        d = eq.r_prime - params.r_lower
        n = config.n_reps
        return ref_aggregate([0.0] * n, [False] * n, [theta - 0.5 * d * d] * n)
    return ref_simulate_continuation(params, params.r_lower, theta, eq.x_prime, config)


def assert_matches(outcome, refs):
    """Each field equals the per-theta values bit for bit, sign of zero included."""
    for field in FIELDS:
        got = getattr(outcome, field)
        want = np.array([ref[field] for ref in refs])
        assert isinstance(got, np.ndarray) and got.shape == want.shape, field
        assert np.array_equal(got, want), field
        assert np.array_equal(np.signbit(got), np.signbit(want)), field


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
    @pytest.mark.parametrize("n_reps", [1, 4, 20])
    def test_signaling_grid_across_band_edges(self, n_reps):
        eq = solve_signaling(WIDE, 0.8)
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=9)
        grid = [-1.0, 0.05, *_around(eq.theta_lower), 2.0,
                *_around(eq.theta_upper), 5.0, 8.0]
        assert_matches(
            simulate_signaling(WIDE, eq, grid, config),
            [ref_simulate_signaling(WIDE, eq, t, config) for t in grid],
        )

    @pytest.mark.parametrize("n_reps", [1, 5, 20])
    def test_continuation_grid(self, n_reps):
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=42)
        x_cutoff = closed_form_thresholds(HALF, 0.25).x_cutoff
        grid = [0.05 * k for k in range(21)] + _around(0.75, x_cutoff - 0.5, x_cutoff + 0.5)
        assert_matches(
            simulate_continuation(HALF, 0.25, grid, x_cutoff, config),
            [ref_simulate_continuation(HALF, 0.25, t, x_cutoff, config) for t in grid],
        )

    def test_fall_rule_ties(self):
        # With four agents alpha is a multiple of 1/4, so the regime ties
        # (theta == alpha) at theta = 0.25, 0.5 and 0.75 in many replications:
        # a tie falls, in the grid as in the per-theta code.
        config = SimConfig(n_agents=4, n_reps=20, master_seed=5)
        grid = [0.25, 0.5, 0.75]
        outcome = simulate_continuation(HALF, 1.0, grid, 1.0, config)
        refs = [ref_simulate_continuation(HALF, 1.0, t, 1.0, config) for t in grid]
        assert_matches(outcome, refs)
        assert outcome.fall_frequency[2] > 0.0

    def test_scalar_theta_returns_one_outcome(self):
        config = SimConfig(n_agents=3000, n_reps=3, master_seed=1)
        outcome = simulate_continuation(HALF, 0.25, 0.9, 1.0, config)
        ref = ref_simulate_continuation(HALF, 0.25, 0.9, 1.0, config)
        for field in FIELDS:
            value = getattr(outcome, field)
            assert type(value) is float and value == ref[field], field
        grid = simulate_continuation(HALF, 0.25, [0.9], 1.0, config)
        assert_matches(grid, [ref])
        eq = solve_signaling(WIDE, 0.8)
        on_band = simulate_signaling(WIDE, eq, 1.0, config)
        assert all(type(getattr(on_band, f)) is float for f in FIELDS)

    def test_one_panel_per_replication(self, rng_calls):
        config = SimConfig(n_agents=1000, n_reps=6, master_seed=3)
        simulate_continuation(HALF, 0.25, [0.1 * k for k in range(11)], 1.0, config)
        assert rng_calls == [(_sub_seed(3, _STREAM_REPS, k),) for k in range(6)]

    def test_grid_on_the_band_draws_nothing(self, rng_calls):
        eq = solve_signaling(WIDE, 0.8)
        grid = [eq.theta_lower, 1.0, 3.0, eq.theta_upper]
        outcome = simulate_signaling(WIDE, eq, grid, BIG)
        assert rng_calls == []
        assert outcome.alpha_mean.tolist() == [0.0] * len(grid)
        empty = simulate_continuation(HALF, 0.25, [], 1.0, BIG)
        assert all(getattr(empty, f).shape == (0,) for f in FIELDS)
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
