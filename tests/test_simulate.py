"""Finite-agent Monte Carlo against the continuum quantities."""

import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

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
from regimelab import simulate
from regimelab.model import cost
from regimelab.simulate import (
    _STREAM_REPS,
    _attack_fractions,
    _lattice_bounds,
    _row_means,
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
        # --agents accepts at most 1e8.
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


# --- reference: per-theta scoring of the run's own draws --------------------
# A self-contained copy of the scalar code: one theta at a time, one
# replication at a time, aggregated from Python lists. A grid's thetas share
# one draw per replication, so each theta's attack fractions are the row the
# run itself drew for it; what is checked is the scoring, the aggregation
# and the shapes.

FIELDS = ("alpha_mean", "alpha_halfwidth", "fall_frequency", "welfare_mean")
Z99 = 2.5758293035489004


class TestRowMeans:
    def test_np_mean_bit_for_bit_where_it_is_finite(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((200, 7)) * 10.0 ** rng.integers(-300, 300, (200, 1))
        values[:3] = [[5e-324] * 7, [-0.0] * 7, [1e307] * 7]
        means, plain = _row_means(values), np.mean(values, axis=1)
        assert np.array_equal(means, plain)
        assert np.array_equal(np.signbit(means), np.signbit(plain))

    @pytest.mark.parametrize(
        "row",
        [[1e308, 1e308], [1.7e308, 1.7e308, -1e308], [sys.float_info.max] * 5,
         [-sys.float_info.max, -sys.float_info.max, 1.0, 2.0]],
    )
    def test_a_sum_that_overflows_gives_the_finite_mean(self, row):
        # Warnings are errors here, so numpy's overflow warning fails the test too.
        means = _row_means(np.array([row, [0.5] * len(row)]))
        exact = float(sum(map(Fraction, row)) / len(row))
        assert means[0] == pytest.approx(exact, rel=1e-15)
        assert means[1] == 0.5


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


def ref_simulate_continuation(params, r, theta, row):
    alphas, falls, welfares = [], [], []
    for alpha in row.tolist():
        abandon = theta <= alpha
        alphas.append(alpha)
        falls.append(abandon)
        welfares.append(ref_payoff(params, r, abandon, theta, alpha))
    return ref_aggregate(alphas, falls, welfares)


def ref_simulate_signaling(params, eq, theta, row):
    if eq.theta_lower <= theta <= eq.theta_upper:
        # Deterministic on the band: nobody attacks, the regime stands, and
        # the policymaker nets theta - cost(r_prime) in every replication.
        d = eq.r_prime - params.r_lower
        n = len(row)
        return ref_aggregate([0.0] * n, [False] * n, [theta - 0.5 * d * d] * n)
    return ref_simulate_continuation(params, params.r_lower, theta, row)


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


@pytest.fixture
def run_rows(monkeypatch):
    """The attack-fraction matrices that simulate's runs draw, in call order."""
    drawn = []
    attack_fractions = simulate._attack_fractions

    def recording(*args):
        alphas = attack_fractions(*args)
        drawn.append(alphas.copy())
        return alphas

    monkeypatch.setattr(simulate, "_attack_fractions", recording)
    return drawn


class TestGridMatchesPerThetaCode:
    @pytest.mark.parametrize("n_reps", [1, 4, 20])
    def test_signaling_grid_across_band_edges(self, run_rows, n_reps):
        eq = solve_signaling(WIDE, 0.8)
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=9)
        grid = [-1.0, 0.05, *_around(eq.theta_lower), 2.0,
                *_around(eq.theta_upper), 5.0, 8.0]
        outcome = simulate_signaling(WIDE, eq, grid, config)
        [alphas] = run_rows
        assert_matches(
            outcome, [ref_simulate_signaling(WIDE, eq, t, row) for t, row in zip(grid, alphas)]
        )

    @pytest.mark.parametrize("n_reps", [1, 5, 20])
    def test_continuation_grid(self, run_rows, n_reps):
        config = SimConfig(n_agents=3000, n_reps=n_reps, master_seed=42)
        x_cutoff = closed_form_thresholds(HALF, 0.25).x_cutoff
        grid = [0.05 * k for k in range(21)] + _around(0.75, x_cutoff - 0.5, x_cutoff + 0.5)
        outcome = simulate_continuation(HALF, 0.25, grid, x_cutoff, config)
        [alphas] = run_rows
        assert_matches(
            outcome, [ref_simulate_continuation(HALF, 0.25, t, row) for t, row in zip(grid, alphas)]
        )

    def test_fall_rule_ties(self, run_rows):
        # With four agents alpha is a multiple of 1/4, so the regime ties
        # (theta == alpha) at theta = 0.25, 0.5 and 0.75 in many replications:
        # a tie falls, in the grid as in the per-theta code.
        config = SimConfig(n_agents=4, n_reps=20, master_seed=5)
        grid = [0.25, 0.5, 0.75]
        outcome = simulate_continuation(HALF, 1.0, grid, 1.0, config)
        [alphas] = run_rows
        refs = [ref_simulate_continuation(HALF, 1.0, t, row) for t, row in zip(grid, alphas)]
        assert_matches(outcome, refs)
        assert outcome.fall_frequency[2] > 0.0
        assert np.count_nonzero(alphas == np.array(grid)[:, None]) > 0

    def test_scalar_theta_returns_one_outcome(self, run_rows):
        config = SimConfig(n_agents=3000, n_reps=3, master_seed=1)
        outcome = simulate_continuation(HALF, 0.25, 0.9, 1.0, config)
        ref = ref_simulate_continuation(HALF, 0.25, 0.9, run_rows[0][0])
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


def _attack_counts(panel: np.ndarray, thetas: np.ndarray, x_cutoff: float) -> np.ndarray:
    """For each theta, how many eps of the panel (in any order) give fl(theta + eps) <= x_cutoff."""
    high = panel.max()
    t = _thresholds(thetas, x_cutoff, panel.min(), high)
    counts = np.where(t == high, panel.size, 0)
    inner = t < high
    counts[inner] = [np.count_nonzero(panel <= v) for v in t[inner].tolist()]
    return counts


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


def lattice_probabilities(thetas, x_cutoff, sigma):
    """Each theta's one-agent attack probability under uniform(-sigma, sigma): the
    share (k + 1) / 2**53 of the lattice at or below its bound k * 2**-53."""
    t = _thresholds(thetas, x_cutoff, -sigma, sigma)
    return (_lattice_bounds(t, -sigma, 2.0 * sigma) * 2.0**53 + 1) / 2.0**53


class _CountingGenerator:
    """A numpy Generator that records the size of each array it returns."""

    def __init__(self, generator, sizes):
        self._generator, self._sizes = generator, sizes

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self._sizes.append(out.size)
            return out

        return counted


class TestMultinomialDraws:
    # Bernstein's inequality, as in TestCalibratedAttackMass: over R
    # replications, an outcome of probability q has a frequency within
    # k sqrt(q (1 - q) / R) + k^2 / (3R) of q with probability at least
    # 1 - 2 exp(-k^2 / 2). For k = 7 that is 4.6e-11 per outcome, and by a
    # union bound over the 20 outcomes of positive probability in the two
    # cases, a false-alarm rate below 1e-9.
    K = 7

    @pytest.mark.parametrize(
        "n_agents, thetas", [(3, [1.1, 0.8]), (2, [0.7, 1.3, 1.0])], ids=["3-agents", "2-agents"]
    )
    def test_joint_counts_follow_the_multinomial_law(self, n_agents, thetas):
        # One replication's counts at the thetas, jointly: the agents fall
        # into the lattice cells between the ascending bounds independently.
        reps = 20_000
        thetas = np.array(thetas)
        config = SimConfig(n_agents=n_agents, n_reps=reps, master_seed=6)
        counts = np.rint(_attack_fractions(HALF, thetas, 1.0, config) * n_agents).astype(int)
        observed = {}
        for outcome in map(tuple, counts.T.tolist()):
            observed[outcome] = observed.get(outcome, 0) + 1
        p = lattice_probabilities(thetas, 1.0, HALF.sigma)
        order = np.argsort(p)
        cells = np.diff(p[order], prepend=0.0, append=1.0)
        possible = 0
        for outcome in itertools.product(range(n_agents + 1), repeat=thetas.size):
            ascending = np.array(outcome)[order]
            per_cell = np.diff(ascending, prepend=0, append=n_agents)
            if (per_cell < 0).any():
                assert outcome not in observed, outcome
                continue
            possible += 1
            q = math.factorial(n_agents) * math.prod(
                c**m / math.factorial(m) for c, m in zip(cells.tolist(), per_cell.tolist())
            )
            bound = self.K * math.sqrt(q * (1.0 - q) / reps) + self.K**2 / (3 * reps)
            assert abs(observed.get(outcome, 0) / reps - q) <= bound, (outcome, q)
        assert possible == 10 and len(observed) == possible

    def test_rounding_regime(self):
        # ulp(1e6) = 1.16e-10 > sigma: one agent attacks at theta = x = 1e6
        # with the lattice's probability, not the ramp's 0.5.
        params = ModelParams(sigma=1e-10, r_lower=0.2)
        config = SimConfig(n_agents=100_000, n_reps=20, master_seed=11)
        outcome = simulate_continuation(params, 0.25, 1e6, 1e6, config)
        p = 0.791038304567337
        assert lattice_probabilities(np.array([1e6]), 1e6, params.sigma)[0] == p
        draws = config.n_agents * config.n_reps
        bound = self.K * math.sqrt(p * (1.0 - p) / draws) + self.K**2 / (3 * draws)
        assert abs(outcome.alpha_mean - p) <= bound

    def test_counts_never_rise_with_theta(self):
        thetas = np.random.default_rng(2).permutation(np.linspace(0.3, 1.7, 57))
        config = SimConfig(n_agents=40, n_reps=30, master_seed=8)
        alphas = _attack_fractions(HALF, thetas, 1.0, config)[np.argsort(thetas)]
        assert (np.diff(alphas, axis=0) <= 0.0).all()
        assert 0.0 < alphas.mean() < 1.0

    def test_work_does_not_grow_with_n_agents(self, monkeypatch):
        sizes = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: _CountingGenerator(default_rng(*a), sizes))
        config = SimConfig(n_agents=10**6, n_reps=20, master_seed=42)
        thetas = np.linspace(0.0, 1.0, 21)
        simulate_continuation(HALF, 0.25, thetas, 1.0, config)
        inner = np.count_nonzero(_thresholds(thetas, 1.0, -HALF.sigma, HALF.sigma) < HALF.sigma)
        assert inner == 10
        assert 0 < sum(sizes) <= config.n_reps * (inner + 1)

    def test_multinomial_stream(self):
        # The counts are Generator.multinomial's. NEP 19 does not keep a
        # Generator method's stream stable across numpy versions: a numpy
        # that changes multinomial fails here, and the simulate goldens move.
        rng = np.random.default_rng(_sub_seed(42, _STREAM_REPS, 0))
        draw = rng.multinomial(10**6, [0.25, 0.5, 0.0, 0.25])
        assert draw.tolist() == [249517, 500276, 0, 250207]
        assert rng.multinomial(3, [2.0**-53, 0.5 - 2.0**-53, 0.5]).tolist() == [0, 2, 1]

    @pytest.mark.parametrize("n_agents", [1, 2, 10**6])
    def test_rows_outside_the_ramp_are_exact(self, n_agents):
        # Three thetas lie strictly inside the ramp; with them go thetas that
        # count every agent or none, and a NaN, which are not drawn for.
        config = SimConfig(n_agents=n_agents, n_reps=2, master_seed=n_agents)
        thetas = np.concatenate([[0.0, 0.5, math.nan], np.linspace(0.55, 1.45, 3), [1.6, 3.0]])
        got = _attack_fractions(HALF, thetas, 1.0, config)
        t = _thresholds(thetas, 1.0, -HALF.sigma, HALF.sigma)
        assert np.count_nonzero(t < HALF.sigma) == 3
        assert got[[0, 1]].tolist() == [[1.0, 1.0]] * 2
        assert got[[2, -2, -1]].tolist() == [[0.0, 0.0]] * 3


def ref_attack_fractions(params, thetas, x_cutoff, config):
    """Each replication's one multinomial draw over the cells between 0, the
    drawn thetas' lattice probabilities in ascending order, and 1; a theta
    counts the agents in every cell at or below its own probability."""
    sigma = params.sigma
    t = _thresholds(thetas, x_cutoff, -sigma, sigma)
    drawn = np.flatnonzero(t < sigma)
    p = lattice_probabilities(thetas[drawn], x_cutoff, sigma)
    upper = np.append(np.sort(p), 1.0)
    cells = np.diff(upper, prepend=0.0)
    alphas = np.repeat(np.where(t == sigma, 1.0, 0.0)[:, None], config.n_reps, axis=1)
    for k in range(config.n_reps if drawn.size else 0):
        rng = np.random.default_rng(_sub_seed(config.master_seed, _STREAM_REPS, k))
        per_cell = rng.multinomial(config.n_agents, cells)
        for i, p_i in zip(drawn.tolist(), p.tolist()):
            below = np.searchsorted(upper, p_i, side="right")
            alphas[i, k] = int(per_cell[:below].sum()) / config.n_agents
    return alphas


class TestReferenceDraws:
    @pytest.mark.parametrize("n_agents", [1, 2, 1000, 10**6])
    @pytest.mark.parametrize("n_reps", [1, 2, 3, 5])
    @pytest.mark.parametrize("passed", [1, 3, 17])
    def test_rows_are_one_multinomial_draw_per_replication(
        self, rng_calls, n_agents, n_reps, passed
    ):
        # passed thetas lie inside the ramp, ascending, so their thresholds
        # descend and are sorted before the cells are cut; with them go
        # thetas that count every agent or none, and a NaN.
        config = SimConfig(n_agents=n_agents, n_reps=n_reps, master_seed=n_reps)
        thetas = np.concatenate([[0.0, math.nan], np.linspace(0.55, 1.45, passed), [3.0]])
        got = _attack_fractions(HALF, thetas, 1.0, config)
        in_order = [(_sub_seed(n_reps, _STREAM_REPS, k),) for k in range(n_reps)]
        assert rng_calls == in_order
        assert np.array_equal(got, ref_attack_fractions(HALF, thetas, 1.0, config))

    @pytest.mark.parametrize("n_agents", [3, 10**6])
    @pytest.mark.parametrize("n_reps", [1, 4])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_a_permuted_grid_permutes_the_rows(self, n_agents, n_reps, ties):
        # The cells depend on the grid's thresholds, not on its order. Tied
        # thetas, and thetas an ulp apart, share a bound or cut empty cells.
        thetas = np.linspace(0.6, 1.4, 9)
        if ties:
            thetas = np.array([*thetas.tolist(), 1.0, 1.0, *_around(0.8, 1.2)])
        config = SimConfig(n_agents=n_agents, n_reps=n_reps, master_seed=13)
        order = np.random.default_rng(n_agents + n_reps).permutation(thetas.size)
        rows = _attack_fractions(HALF, thetas, 1.0, config)
        assert np.array_equal(_attack_fractions(HALF, thetas[order], 1.0, config), rows[order])
        assert np.array_equal(rows, ref_attack_fractions(HALF, thetas, 1.0, config))


_LATTICE_SIGMAS = [5e-324, 1e-300, 1e-10, 0.5, 3.0, 8e307]


def lattice_thresholds(sigma):
    """Thresholds across the support [-sigma, sigma): its ends, drawn eps and
    the doubles either side of each (ties), and every double of a tiny support."""
    eps = np.random.default_rng(3).uniform(-sigma, sigma, 200)
    t = np.array(_around(-sigma, *eps.tolist(), 0.0, math.nextafter(sigma, -math.inf)))
    return np.unique(t[(-sigma <= t) & (t < sigma)])


class TestSamplerLattice:
    @pytest.mark.parametrize("sigma", _LATTICE_SIGMAS)
    def test_uniform_is_low_plus_span_times_random(self, sigma):
        # The lattice bounds count random() draws in place of uniform's eps,
        # which holds only while numpy draws uniform(low, high) as
        # low + (high - low) * random(), bit for bit. NEP 19 does not keep
        # Generator methods stable: a numpy that changes uniform fails here.
        eps = np.random.default_rng(8).uniform(-sigma, sigma, 10_000)
        u = np.random.default_rng(8).random(10_000)
        assert np.array_equal((-sigma + (sigma - -sigma) * u).view(np.int64), eps.view(np.int64))

    @pytest.mark.parametrize("sigma", _LATTICE_SIGMAS)
    def test_each_bound_is_the_last_lattice_point_at_or_below_t(self, sigma):
        low, span = -sigma, 2.0 * sigma
        t = lattice_thresholds(sigma)
        bounds = _lattice_bounds(t, low, span)
        k = bounds * 2.0**53
        assert np.array_equal(k, np.floor(k)) and ((0 <= k) & (k < 2.0**53)).all()
        assert (low + span * bounds <= t).all()
        last = k == 2.0**53 - 1
        above = low + span * ((k[~last] + 1) * 2.0**-53)
        assert (above > t[~last]).all()

    @pytest.mark.parametrize("sigma", _LATTICE_SIGMAS)
    def test_counts_of_u_are_counts_of_eps(self, sigma):
        low, span = -sigma, 2.0 * sigma
        u = np.random.default_rng(4).random(5_000)
        eps = low + span * u
        t = np.unique(np.concatenate([lattice_thresholds(sigma), eps[:100]]))
        counts = np.array([np.count_nonzero(u <= b)
                           for b in _lattice_bounds(t, low, span).tolist()])
        assert counts.tolist() == [np.count_nonzero(eps <= v) for v in t.tolist()]

    def test_one_agent_attack_probability(self):
        # The rounding case: at sigma = 1e-10 and theta = x = 1e6 each signal
        # rounds to one of three doubles, and one agent attacks with
        # probability (k + 1) / 2**53 for the bound k * 2**-53, not 0.5.
        sigma = 1e-10
        t = _thresholds(np.array([1e6]), 1e6, -sigma, sigma)
        k = _lattice_bounds(t, -sigma, 2.0 * sigma)[0] * 2.0**53
        assert (k + 1) / 2.0**53 == 0.791038304567337
        # At sigma = 0.5 the doubles are dense and it is the ramp, to a few
        # lattice steps.
        thetas = np.linspace(0.5, 1.5, 41)
        t = _thresholds(thetas, 1.0, -HALF.sigma, HALF.sigma)
        p = (_lattice_bounds(t, -HALF.sigma, 2.0 * HALF.sigma) * 2.0**53 + 1) / 2.0**53
        assert np.abs(p - attack_mass(HALF, 1.0, thetas)).max() <= 4 * 2.0**-53


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
