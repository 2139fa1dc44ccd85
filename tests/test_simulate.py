"""Finite-agent Monte Carlo against the continuum quantities."""

import math
import tracemalloc

import numpy as np
import pytest

from regimelab import (
    DomainError,
    ModelParams,
    SimConfig,
    attack_mass,
    closed_form_thresholds,
    simulate_continuation,
    simulate_signaling,
    solve_signaling,
)
from regimelab.model import cost
from regimelab.simulate import (
    _CHUNK,
    _PASSES,
    _STREAM_REPS,
    _attack_counts,
    _attack_fractions,
    _sub_seed,
    _thresholds,
)

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
        # Above 1e8 agents a replication would hold more than 800 MB.
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


def brute_counts(sorted_eps, thetas, x_cutoff):
    """Compare every signal with the cutoff, as the Monte Carlo once did."""
    return np.count_nonzero(thetas[:, None] + sorted_eps[None, :] <= x_cutoff, axis=1)


def panel(sigma, n, seed=0):
    """The first replication's n draws of the Monte Carlo's stream, sorted."""
    eps = np.random.default_rng(_sub_seed(seed, _STREAM_REPS, 0)).uniform(-sigma, sigma, n)
    eps.sort()
    return eps


def tie_thetas(sorted_eps, x_cutoff):
    """x - eps_j for every agent j, and one ulp either side: each lands on or next to a tie."""
    return np.array(_around(*(x_cutoff - sorted_eps).tolist()))


class TestAttackCounts:
    @pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-10, 1e-3, 0.5, 3.0, 100.0])
    @pytest.mark.parametrize("x_cutoff", [1.0, 1.0 + 1e6, 1.0 - 1e6, 1e15])
    def test_ties_match_comparing_every_signal(self, sigma, x_cutoff):
        # Far from zero, x - theta rounds, so x - eps_j is no exact tie and a
        # search for x - theta in the panel can land an agent or more off.
        eps = panel(sigma, 64)
        thetas = tie_thetas(eps, x_cutoff)
        assert np.array_equal(_attack_counts(eps, thetas, x_cutoff),
                              brute_counts(eps, thetas, x_cutoff))

    @pytest.mark.parametrize("sigma", [1e-10, 0.5])
    @pytest.mark.parametrize("center", [1e6, -1e6, 1e15])
    def test_theta_where_x_minus_theta_rounds(self, sigma, center):
        eps = panel(sigma, 257, seed=3)
        x_cutoff = center + 0.3
        thetas = np.array([center + d for d in np.linspace(-2 * sigma - 1.0, 2 * sigma + 1.0, 401)]
                          + _around(center, x_cutoff))
        assert np.array_equal(_attack_counts(eps, thetas, x_cutoff),
                              brute_counts(eps, thetas, x_cutoff))

    def test_heavy_duplicates(self):
        # At sigma = 5e-324 the panel holds a few distinct subnormals, each
        # many times over.
        eps = panel(5e-324, 500, seed=1)
        assert len(np.unique(eps)) <= 3 < len(eps)
        thetas = np.array(_around(0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1.0))
        for x_cutoff in (0.0, 5e-324, -5e-324, 1.0):
            assert np.array_equal(_attack_counts(eps, thetas, x_cutoff),
                                  brute_counts(eps, thetas, x_cutoff))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
    def test_every_count_at_small_sizes(self, n):
        # Each count 0..n occurs, at the prefix's end and one ulp either side.
        eps = panel(0.5, n, seed=n)
        thetas = np.concatenate([tie_thetas(eps, 1.0), [-10.0, 10.0, 1.0]])
        got = _attack_counts(eps, thetas, 1.0)
        assert np.array_equal(got, brute_counts(eps, thetas, 1.0))
        assert set(got.tolist()) == set(range(n + 1))

    def test_empty_theta_and_one_agent(self):
        eps = panel(0.5, 1)
        assert _attack_counts(eps, np.array([]), 1.0).shape == (0,)
        thetas = np.array([-10.0, *_around(1.0 - eps[0]), 10.0])
        got = _attack_counts(eps, thetas, 1.0)
        assert np.array_equal(got, brute_counts(eps, thetas, 1.0))
        assert got[0] == 1 and got[-1] == 0

    def test_nan_attacks_nowhere(self):
        eps = panel(0.5, 10)
        assert _attack_counts(eps, np.array([math.nan, 0.0]), 1.0).tolist() == [0, 10]
        assert _attack_counts(eps, np.array([0.0]), math.nan).tolist() == [0]


class TestThresholds:
    """The exact thresholds behind _attack_counts, on panels in any order."""

    @pytest.mark.parametrize("sigma", [1e-10, 0.5, 1.5, 3.0, 1e8])
    @pytest.mark.parametrize("x_cutoff", [1.0, 0.0, 1e6])
    def test_unsorted_panels(self, sigma, x_cutoff):
        rng = np.random.default_rng(17)
        eps = rng.uniform(-sigma, sigma, 300)
        thetas = np.concatenate([tie_thetas(eps[:40], x_cutoff),
                                 x_cutoff + np.linspace(-2 * sigma, 2 * sigma, 101)])
        before = eps.copy()
        assert np.array_equal(_attack_counts(eps, thetas, x_cutoff),
                              brute_counts(eps, thetas, x_cutoff))
        assert np.array_equal(eps, before)  # the caller's panel is left in its order

    def test_rounding_regime(self):
        # ulp(1e6) = 1.16e-10 > sigma: every fl(theta + eps) is one of three
        # doubles, so the share that attacks is far off the ramp, and exact.
        eps = np.random.default_rng(5).uniform(-1e-10, 1e-10, 1000)
        thetas = np.array(_around(1e6, 1e6 - 1e-10, 1e6 + 1e-10))
        got = _attack_counts(eps, thetas, 1e6)
        assert np.array_equal(got, brute_counts(eps, thetas, 1e6))
        assert 0 < got[1] < eps.size

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 1e3, 1e300])
    def test_brackets_spanning_zero_where_the_key_difference_overflows(self, sigma):
        # The keys of -sigma and sigma are -1 - b and b, with b the bits of
        # sigma, so hi - lo = 2b + 1 passes the int64 range from sigma = 2 on.
        b = int(np.array(sigma).view(np.int64))
        assert (2 * b + 1 > 2**63 - 1) == (sigma >= 2.0)
        eps = np.concatenate([panel(sigma, 200, seed=2), [-sigma, 0.0, -0.0, sigma]])
        np.random.default_rng(0).shuffle(eps)
        thetas = np.concatenate([tie_thetas(eps, 0.25), [-2 * sigma, 0.25, 2 * sigma]])
        assert np.array_equal(_attack_counts(eps, thetas, 0.25),
                              brute_counts(eps, thetas, 0.25))
        # 0.25 + 2^-55 ties halfway to the next double and rounds to even, 0.25.
        assert _thresholds(np.array([0.25]), 0.25, -sigma, sigma)[0] == 2.0**-55

    @pytest.mark.parametrize("sigma", [1e-10, 0.5, 3.0, 1e15])
    def test_each_threshold_is_the_last_attacking_double(self, sigma):
        x_cutoff = 1.0 + sigma / 3
        thetas = x_cutoff + np.linspace(-1.5 * sigma, 1.5 * sigma, 61)
        t = _thresholds(thetas, x_cutoff, -sigma, sigma)
        inner = t < sigma
        assert np.all(thetas[inner] + t[inner] <= x_cutoff)
        assert np.all(thetas[inner] + np.nextafter(t[inner], math.inf) > x_cutoff)
        assert np.all(thetas[t == sigma] + sigma <= x_cutoff)
        assert np.all(~(thetas[np.isnan(t)] - sigma <= x_cutoff))
        assert inner.any() and (t == sigma).any() and np.isnan(t).any()

    def test_nan_counts_nowhere(self):
        t = _thresholds(np.array([math.nan, -math.inf, math.inf, 0.0]), 1.0, -0.5, 0.5)
        assert t[1] == 0.5 and np.isnan(t[[0, 2]]).all() and t[3] == 0.5
        assert np.isnan(_thresholds(np.array([0.0, 1.0]), math.nan, -0.5, 0.5)).all()


def ref_attack_fractions(params, thetas, x_cutoff, config):
    """Each replication's whole panel in one uniform call, every signal compared."""
    alphas = np.zeros((thetas.size, config.n_reps))
    for k in range(config.n_reps):
        rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
        eps = rng.uniform(-params.sigma, params.sigma, config.n_agents)
        for i, theta in enumerate(thetas):
            alphas[i, k] = np.count_nonzero(theta + eps <= x_cutoff)
    return alphas / config.n_agents


class TestChunkedDraws:
    def test_chunks_continue_the_whole_panel_stream(self):
        n = 2 * _CHUNK + 3
        whole = np.random.default_rng(_sub_seed(1, _STREAM_REPS, 0)).uniform(-0.5, 0.5, n)
        rng = np.random.default_rng(_sub_seed(1, _STREAM_REPS, 0))
        chunks = [rng.uniform(-0.5, 0.5, min(_CHUNK, n - s)) for s in range(0, n, _CHUNK)]
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("n_agents", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("passed", [_PASSES, _PASSES + 1])
    def test_matches_the_whole_panel(self, n_agents, passed):
        # passed thetas lie strictly inside the ramp; with them go thetas that
        # count every agent or none, and a NaN, which are not drawn for.
        config = SimConfig(n_agents=n_agents, n_reps=2, master_seed=n_agents)
        x_cutoff = 1.0
        inner = np.linspace(0.55, 1.45, passed)
        thetas = np.concatenate([[0.0, 0.5, math.nan], inner, [1.6, 3.0]])
        got = _attack_fractions(HALF, thetas, x_cutoff, config)
        assert np.array_equal(got, ref_attack_fractions(HALF, thetas, x_cutoff, config))
        t = _thresholds(thetas, x_cutoff, -HALF.sigma, HALF.sigma)
        assert np.count_nonzero(t < HALF.sigma) == passed
        assert got[[0, 1]].tolist() == [[1.0, 1.0]] * 2
        assert got[[2, -2, -1]].tolist() == [[0.0, 0.0]] * 3


class TestMemory:
    @pytest.mark.parametrize("n_thetas", [21, 201])
    def test_peak_holds_one_chunk_not_the_panel(self, n_thetas):
        # A replication holds one 1 MiB chunk and a pass's 128 KiB mask; a
        # whole 8 MB panel per replication fails this. A small run first
        # loads what numpy loads lazily, which is no part of the peak.
        grid = np.linspace(0.0, 1.0, n_thetas).tolist()
        simulate_continuation(HALF, 0.25, grid, 1.0, SimConfig(10, 2, 1))
        config = SimConfig(1_000_000, 2, 1)
        tracemalloc.start()
        try:
            simulate_continuation(HALF, 0.25, grid, 1.0, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


class TestCalibratedAttackMass:
    # alpha_mean at theta is Binomial(N, p)/N with N = n_agents * n_reps draws
    # and p the attack ramp. Bernstein's inequality bounds each point's
    # deviation by k binomial standard errors plus k^2 / (3N), with
    # probability at least 1 - 2 exp(-k^2 / 2): for k = 7 that is 4.6e-11
    # per point, and by a union bound over the 14,002 points of the two
    # grids, a family-wise false-alarm rate below 6.5e-7. The second term
    # matters only at the ramp's ends, where p(1 - p) is tiny.
    #
    # The only extra slack is delta, for rounding: of theta + eps against the
    # cutoff, of the draw's -sigma + 2 sigma U, and of the ramp itself. Each
    # of the three moves p by under 2^-52 (|theta| + |x| + sigma) / sigma, and
    # delta is four times that; it stands in for p's error in the standard
    # error too.
    K = 7

    @pytest.mark.parametrize(
        "params, r, config",
        [
            (HALF, 0.25, SimConfig(n_agents=100_000, n_reps=20, master_seed=2006)),
            (WIDE, 0.5, SimConfig(n_agents=40_000, n_reps=50, master_seed=7)),
        ],
    )
    def test_dense_grid_within_binomial_error(self, params, r, config):
        x_cutoff = closed_form_thresholds(params, r).x_cutoff
        sigma = params.sigma
        grid = np.linspace(x_cutoff - 1.2 * sigma, x_cutoff + 1.2 * sigma, 7001)
        outcome = simulate_continuation(params, r, grid, x_cutoff, config)
        draws = config.n_agents * config.n_reps
        p = attack_mass(params, x_cutoff, grid)
        delta = 2.0**-50 * (np.abs(grid) + abs(x_cutoff) + sigma) / sigma
        bound = self.K * np.sqrt((p * (1.0 - p) + delta) / draws) + self.K**2 / (3 * draws) + delta
        worst = np.max(np.abs(outcome.alpha_mean - p) / bound)
        assert worst <= 1.0, worst
        # The grid crosses the whole ramp, so the test is not vacuous.
        assert np.count_nonzero((0.01 < p) & (p < 0.99)) > 4000
