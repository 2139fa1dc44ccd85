"""Welfare comparative statics in the intervention level."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from regimelab import (
    BoundaryError,
    DomainError,
    ModelParams,
    PolicyRegion,
    Verdict,
    aggregate_attack_no_intervention,
    classify_region,
    compare_slices,
    compare_welfare,
    critical_sigma,
    ex_post_welfare,
    lower_threshold_sensitivity,
    max_policy,
    solve_signaling,
    sweep,
    welfare_derivative_in_rprime,
)
from regimelab.statics import _SWEEP_SLICE

TIGHT = 1e-12
FD_TOL = 1e-6

WIDE = ModelParams(sigma=3.0, r_lower=0.2)  # noisy: sigma_star = 2.0
HALF = ModelParams(sigma=0.5, r_lower=0.2)  # precise
CRIT = ModelParams(sigma=2.0, r_lower=0.2)  # exactly at the critical level


class TestCriticalSigma:
    def test_values(self):
        assert critical_sigma(ModelParams(1.0, 0.2)) == pytest.approx(2.0, abs=TIGHT)
        assert critical_sigma(ModelParams(1.0, 0.5)) == pytest.approx(0.5, abs=TIGHT)

    def test_vanishes_as_baseline_approaches_one(self):
        assert critical_sigma(ModelParams(1.0, 0.999)) == pytest.approx(
            0.001 / 1.998, abs=1e-12
        )
        assert critical_sigma(ModelParams(1.0, 0.999)) < 6e-4

    def test_regime_classification(self):
        # Noisy means sigma strictly above sigma_star: the critical level
        # itself counts as precise.
        assert WIDE.sigma > critical_sigma(WIDE)
        assert not HALF.sigma > critical_sigma(HALF)
        assert critical_sigma(CRIT) == pytest.approx(2.0, abs=TIGHT)
        assert CRIT.sigma == critical_sigma(CRIT)
        assert not CRIT.sigma > critical_sigma(CRIT)


class TestThresholdSensitivity:
    def test_plain_value(self):
        assert lower_threshold_sensitivity(WIDE, 0.8) == pytest.approx(0.6, abs=TIGHT)

    def test_near_baseline_finite_difference(self):
        h = 1e-6
        analytic = lower_threshold_sensitivity(WIDE, 0.2001)
        fd = (
            solve_signaling(WIDE, 0.2001 + h).theta_lower
            - solve_signaling(WIDE, 0.2001 - h).theta_lower
        ) / (2 * h)
        assert analytic == pytest.approx(0.0001, abs=TIGHT)
        assert fd == pytest.approx(analytic, abs=FD_TOL)

    def test_at_family_top(self):
        params = ModelParams(sigma=1.0, r_lower=0.5)
        assert lower_threshold_sensitivity(params, 1.5) == pytest.approx(1.0, abs=TIGHT)

    def test_outside_family_rejected(self):
        with pytest.raises(DomainError):
            lower_threshold_sensitivity(WIDE, 0.2)
        with pytest.raises(DomainError):
            lower_threshold_sensitivity(WIDE, max_policy(WIDE) + 0.01)

    def test_sampled_finite_differences(self):
        rng = np.random.default_rng(2024)
        h = 1e-6
        for _ in range(50):
            r_lower = float(rng.uniform(0.05, 0.95))
            params = ModelParams(sigma=1.0, r_lower=r_lower)
            r_tilde = max_policy(params)
            r_prime = float(rng.uniform(r_lower + 0.01, r_tilde - 0.01))
            fd = (
                solve_signaling(params, r_prime + h).theta_lower
                - solve_signaling(params, r_prime - h).theta_lower
            ) / (2 * h)
            assert abs(fd - lower_threshold_sensitivity(params, r_prime)) <= FD_TOL


class TestWelfareDerivative:
    def test_noisy_defend_region_positive(self):
        eq = solve_signaling(WIDE, 0.8)
        value = welfare_derivative_in_rprime(WIDE, eq, 5.0)
        assert value == pytest.approx((0.25 - 1.0 / 6.0) * 0.6, abs=TIGHT)
        assert value == pytest.approx(0.05, abs=TIGHT)

    def test_intervene_region_negative(self):
        eq = solve_signaling(HALF, 0.8)
        assert welfare_derivative_in_rprime(HALF, eq, 0.5) == pytest.approx(
            -0.6, abs=TIGHT
        )

    def test_no_attack_region_flat(self):
        eq = solve_signaling(WIDE, 0.8)
        assert welfare_derivative_in_rprime(WIDE, eq, 7.0) == 0.0

    def test_kinks_are_refused(self):
        eq = solve_signaling(WIDE, 0.8)
        for kink in (eq.theta_lower, eq.theta_upper, eq.theta_no_attack):
            with pytest.raises(BoundaryError):
                welfare_derivative_in_rprime(WIDE, eq, kink)

    def test_zero_defend_derivative_at_critical_noise(self):
        eq = solve_signaling(CRIT, 0.8)
        theta = 0.5 * (eq.theta_upper + eq.theta_no_attack)
        assert abs(welfare_derivative_in_rprime(CRIT, eq, theta)) <= TIGHT

    @pytest.mark.parametrize("params", [WIDE, HALF, CRIT])
    def test_matches_central_finite_difference(self, params):
        h = 1e-5
        r_tilde = max_policy(params)
        for r_prime in np.linspace(params.r_lower + 0.05, r_tilde - 0.05, 8):
            eq = solve_signaling(params, float(r_prime))
            probes = [eq.theta_lower - 0.3]
            if eq.theta_upper - eq.theta_lower > 2e-3:
                probes.append(0.5 * (eq.theta_lower + eq.theta_upper))
            probes.append(0.5 * (eq.theta_upper + eq.theta_no_attack))
            probes.append(eq.theta_no_attack + 0.3)
            eq_lo = solve_signaling(params, float(r_prime) - h)
            eq_hi = solve_signaling(params, float(r_prime) + h)
            for theta in probes:
                analytic = welfare_derivative_in_rprime(params, eq, theta)
                fd = (
                    ex_post_welfare(params, eq_hi, theta)
                    - ex_post_welfare(params, eq_lo, theta)
                ) / (2 * h)
                assert abs(analytic - fd) <= FD_TOL

    def test_precise_noise_never_helps(self):
        for params in (HALF, CRIT):
            for r_prime in np.linspace(params.r_lower + 0.05, max_policy(params), 10):
                eq = solve_signaling(params, float(r_prime))
                grid = np.linspace(eq.theta_lower - 1.0, eq.theta_no_attack + 1.0, 200)
                for theta in grid:
                    t = float(theta)
                    if min(
                        abs(t - eq.theta_lower),
                        abs(t - eq.theta_upper),
                        abs(t - eq.theta_no_attack),
                    ) < 1e-9:
                        continue
                    assert welfare_derivative_in_rprime(params, eq, t) <= 0.0


class TestCompareWelfare:
    def test_noisy_strong_type_prefers_aggressive(self):
        comparison = compare_welfare(WIDE, 0.8, 0.9, [5.0])
        assert comparison.verdicts[0] is Verdict.HIGHER_UNDER_AGGRESSIVE
        assert comparison.u_high[0] == pytest.approx(4.85375, abs=1e-6)
        assert comparison.u_low[0] == pytest.approx(4.8483333, abs=1e-6)
        assert comparison.u_high[0] - comparison.u_low[0] == pytest.approx(
            0.0054167, abs=1e-6
        )

    def test_precise_weak_type_prefers_mild(self):
        comparison = compare_welfare(HALF, 0.8, 0.9, [0.5])
        assert comparison.verdicts[0] is Verdict.LOWER_UNDER_AGGRESSIVE
        assert comparison.u_high[0] == pytest.approx(0.255, abs=TIGHT)
        assert comparison.u_low[0] == pytest.approx(0.32, abs=TIGHT)

    def test_fields_are_arrays_over_the_grid(self):
        grid = [0.5, 2.0, 5.0]
        comparison = compare_welfare(WIDE, 0.8, 0.9, grid)
        for field in dataclasses.fields(comparison):
            value = getattr(comparison, field.name)
            assert isinstance(value, np.ndarray) and value.shape == (3,), field.name
        assert comparison.theta_grid.tolist() == grid
        assert comparison.region_low.dtype == comparison.verdicts.dtype == object

    def test_identical_levels_all_equal(self):
        grid = list(np.linspace(0.0, 7.0, 71))
        comparison = compare_welfare(WIDE, 0.8, 0.8, grid)
        assert all(v is Verdict.EQUAL for v in comparison.verdicts)

    def test_verdicts_consistent_with_values(self):
        grid = list(np.linspace(0.0, 7.0, 141))
        comparison = compare_welfare(WIDE, 0.8, 0.9, grid, tol=1e-9)
        for u_lo, u_hi, verdict in zip(
            comparison.u_low, comparison.u_high, comparison.verdicts
        ):
            if verdict is Verdict.HIGHER_UNDER_AGGRESSIVE:
                assert u_hi - u_lo > 1e-9
            elif verdict is Verdict.LOWER_UNDER_AGGRESSIVE:
                assert u_lo - u_hi > 1e-9
            else:
                assert abs(u_hi - u_lo) <= 1e-9

    def test_precise_noise_global_dominance(self):
        grid = list(np.linspace(0.0, 7.0, 701))
        for params in (HALF, CRIT):
            comparison = compare_welfare(params, 0.8, 0.9, grid)
            assert all(
                hi <= lo + 1e-9 for lo, hi in zip(comparison.u_low, comparison.u_high)
            )

    def test_precise_noise_strict_on_affected_band(self):
        eq_low = solve_signaling(HALF, 0.8)
        eq_high = solve_signaling(HALF, 0.9)
        strict = [
            t
            for t in np.linspace(0.0, 7.0, 701)
            if eq_low.theta_lower + 1e-6 < t < eq_high.theta_no_attack - 1e-6
        ]
        comparison = compare_welfare(HALF, 0.8, 0.9, strict)
        assert all(hi < lo for lo, hi in zip(comparison.u_low, comparison.u_high))

    def test_noisy_crossing_exists(self):
        grid = list(np.linspace(0.0, 7.0, 701))
        comparison = compare_welfare(WIDE, 0.8, 0.9, grid)
        diffs = [hi - lo for lo, hi in zip(comparison.u_low, comparison.u_high)]
        assert max(diffs) > 1e-9
        assert min(diffs) < -1e-9

    def test_ordering_violations_rejected(self):
        with pytest.raises(DomainError):
            compare_welfare(WIDE, 0.9, 0.8, [1.0])
        with pytest.raises(DomainError):
            compare_welfare(WIDE, 0.1, 0.8, [1.0])
        with pytest.raises(DomainError):
            compare_welfare(WIDE, 0.8, 0.9, [])
        with pytest.raises(DomainError):
            compare_welfare(WIDE, 0.8, 0.9, [2.0, 1.0])


class TestCompareSlices:
    # 33,001 points: whole slices and one partial last one.
    THETAS = [k * 2e-4 for k in range(33_001)]

    def test_slices_concatenate_to_the_whole_grid_curves(self):
        slices = list(compare_slices(WIDE, 0.8, 0.9, self.THETAS))
        full, rest = divmod(33_001, _SWEEP_SLICE)
        assert [len(cols[0]) for cols in slices] == [_SWEEP_SLICE] * full + [rest]
        theta, region_low, attack_low, u_low, u_high, verdicts = (
            np.concatenate(col) for col in zip(*slices)
        )
        grid = np.array(self.THETAS)
        eq_low = solve_signaling(WIDE, 0.8)
        eq_high = solve_signaling(WIDE, 0.9)
        assert theta.tobytes() == grid.tobytes()
        assert region_low.tolist() == classify_region(eq_low, grid).tolist()
        whole_attack = aggregate_attack_no_intervention(WIDE, eq_low, grid)
        assert attack_low.tobytes() == whole_attack.tobytes()
        assert u_low.tobytes() == ex_post_welfare(WIDE, eq_low, grid).tobytes()
        assert u_high.tobytes() == ex_post_welfare(WIDE, eq_high, grid).tobytes()
        # The grid crosses the verdict flip, so every verdict is checked.
        assert {Verdict.HIGHER_UNDER_AGGRESSIVE, Verdict.LOWER_UNDER_AGGRESSIVE} <= set(verdicts)
        for lo, hi, verdict in zip(u_low.tolist(), u_high.tolist(), verdicts):
            if hi - lo > 1e-9:
                assert verdict is Verdict.HIGHER_UNDER_AGGRESSIVE
            elif lo - hi > 1e-9:
                assert verdict is Verdict.LOWER_UNDER_AGGRESSIVE
            else:
                assert verdict is Verdict.EQUAL

    @pytest.mark.parametrize(
        "r_low, r_high, grid, tol",
        [
            (0.9, 0.8, [1.0], 1e-9),
            (0.8, 0.9, [], 1e-9),
            (0.8, 0.9, [2.0, 1.0], 1e-9),
            (0.8, 0.9, [1.0], -1.0),
            (0.8, 0.9, [1.0, np.nan, 0.5], 1e-9),
            (0.8, 0.9, [np.nan], 1e-9),
            (0.8, 0.9, [np.inf], 1e-9),
        ],
    )
    def test_each_refusal_raises_at_the_first_slice(self, r_low, r_high, grid, tol):
        slices = compare_slices(WIDE, r_low, r_high, grid, tol)
        with pytest.raises(DomainError):
            next(slices)

    def test_peak_holds_the_grid_and_one_slice(self):
        # 327,680 points, 320 slices. Building the six whole-grid arrays
        # first peaked at about 21 MiB; a slice at a time, what stays is the
        # grid array of the checks, until the first slice, and one slice.
        thetas = [k * 2e-5 for k in range(327_680)]
        tracemalloc.start()
        try:
            for _ in compare_slices(WIDE, 0.8, 0.9, thetas):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("n", [1, _SWEEP_SLICE, _SWEEP_SLICE + 1, 16_384, 16_385])
    def test_compare_welfare_is_the_concatenated_slices(self, n):
        # At one point, one full slice and one point past it, and 16,384
        # points (16 full slices) and one point past them.
        thetas = [k * 7.0 / n for k in range(n)]
        slices = list(compare_slices(WIDE, 0.8, 0.9, thetas))
        theta, region_low, attack_low, u_low, u_high, verdicts = (
            np.concatenate(col) for col in zip(*slices)
        )
        result = compare_welfare(WIDE, 0.8, 0.9, thetas)
        assert result.theta_grid.tobytes() == theta.tobytes()
        assert result.u_low.tobytes() == u_low.tobytes()
        assert result.u_high.tobytes() == u_high.tobytes()
        assert result.attack_low.tobytes() == attack_low.tobytes()
        assert result.region_low.tolist() == region_low.tolist()
        assert result.verdicts.tolist() == verdicts.tolist()

    def test_compare_welfare_peak_holds_the_table_and_one_column(self):
        # 327,680 points, six 8-byte columns: the table is 15 MiB. Joining
        # every column while all the slices were still held peaked at about
        # 30 MiB; dropping each column's slices once it is joined leaves the
        # slices and one joined column, about 17.5 MiB.
        thetas = [k * 2e-5 for k in range(327_680)]
        column = 8 * len(thetas)
        tracemalloc.start()
        try:
            result = compare_welfare(WIDE, 0.8, 0.9, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.theta_grid) == len(thetas)
        assert peak < 6 * column + 2 * column, peak


def _sweep_table(params, r_primes, thetas):
    """Every (r_prime, theta, region, attack, welfare) the sweep yields, in order."""
    return [
        row
        for r_prime, part, regions, attacks, welfares in sweep(params, r_primes, thetas)
        for row in zip([r_prime] * len(part), part, regions, attacks, welfares)
    ]


class TestSweep:
    def test_wide_noise_welfare_rows(self):
        rows = _sweep_table(WIDE, [0.8], np.linspace(0.1, 5.0, 50).tolist())
        welfare_at = {round(theta, 9): welfare for _, theta, _, _, welfare in rows}
        assert welfare_at[0.1] == pytest.approx(0.0, abs=TIGHT)
        assert welfare_at[1.0] == pytest.approx(0.82, abs=1e-9)
        assert welfare_at[5.0] == pytest.approx(4.8483333, abs=1e-6)

    def test_boundary_row_has_no_attack(self):
        eq = solve_signaling(HALF, 0.8)
        rows = _sweep_table(HALF, [0.8], [eq.theta_no_attack] * 2)
        assert len(rows) == 2
        for _, _, region, attack, welfare in rows:
            assert attack == 0.0
            assert welfare == pytest.approx(1.135, abs=TIGHT)
            assert region is PolicyRegion.NO_ATTACK

    def test_empty_family_list(self):
        assert list(sweep(HALF, [], [0.0, 1.0])) == []

    def test_every_rprime_is_refused_before_the_first_slice(self):
        # r' = 5 lies past r_tilde: refused before any slice of r' = 0.5 is yielded.
        slices = sweep(WIDE, [0.5, 5.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            next(slices)

    @pytest.mark.parametrize("thetas", [[np.nan], [np.inf], [1.0, np.nan]])
    def test_non_finite_theta_is_refused_before_the_first_slice(self, thetas):
        # These used to yield no-attack rows with a NaN or infinite welfare.
        slices = sweep(WIDE, [0.8], thetas)
        with pytest.raises(DomainError, match="thetas must be finite"):
            next(slices)

    def test_row_ordering(self):
        rows = _sweep_table(WIDE, [0.5, 0.8], [0.0, 0.5, 1.0])
        assert [row[:2] for row in rows] == [
            (0.5, 0.0),
            (0.5, 0.5),
            (0.5, 1.0),
            (0.8, 0.0),
            (0.8, 0.5),
            (0.8, 1.0),
        ]

    def test_slices_concatenate_to_the_whole_grid(self):
        # 33,001 points: whole slices per r_prime and one partial last one.
        thetas = [k * 1e-4 for k in range(33_001)]
        blocks = list(sweep(WIDE, [0.5, 0.8], thetas))
        full, rest = divmod(33_001, _SWEEP_SLICE)
        assert [(r, len(part)) for r, part, *_ in blocks] == [
            (r, n) for r in (0.5, 0.8) for n in [_SWEEP_SLICE] * full + [rest]
        ]
        grid = np.array(thetas)
        for r_prime in (0.5, 0.8):
            own = [block for block in blocks if block[0] == r_prime]
            eq = solve_signaling(WIDE, r_prime)
            assert [t for _, part, *_ in own for t in part] == thetas
            regions = np.concatenate([block[2] for block in own])
            assert regions.tolist() == classify_region(eq, grid).tolist()
            attacks = np.array([a for block in own for a in block[3]])
            welfares = np.array([w for block in own for w in block[4]])
            whole_attack = aggregate_attack_no_intervention(WIDE, eq, grid)
            assert attacks.tobytes() == whole_attack.tobytes()
            assert welfares.tobytes() == ex_post_welfare(WIDE, eq, grid).tobytes()
