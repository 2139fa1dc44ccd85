"""Fixed-policy continuation game: closed form vs iterated dominance."""

import tracemalloc

import numpy as np
import pytest

from regimelab import (
    ConvergenceError,
    DomainError,
    ModelParams,
    attack_mass,
    best_response_cutoff,
    closed_form_thresholds,
    iterated_cutoffs,
    regime_fall_threshold,
    solve_iterated_dominance,
    success_prob_given_signal,
)
from regimelab.verify import _POLICIES

TIGHT = 1e-12
SOLVER_TOL = 1e-9

HALF = ModelParams(sigma=0.5, r_lower=0.2)
WIDE = ModelParams(sigma=3.0, r_lower=0.2)

# `continuation --sigma 0.001 --r 0.2 --solver iterated --tol 1e-300`
STALL_1E300 = "cutoff bracket still 5.551e-14 wide after 346285 iterations (tol=1.0e-300)"


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


def replay_elimination(params, r, trace):
    """Iterate best_response_cutoff from the solver's start for trace.rounds rounds.

    Returns the upper and lower cutoff sequences, start included, after
    checking that their last pair is the trace's final bracket bit for bit.
    """
    uppers = [1.0 + params.sigma + 1.0]
    lowers = [-params.sigma - 1.0]
    for _ in range(trace.rounds):
        uppers.append(best_response_cutoff(params, r, uppers[-1]))
        lowers.append(best_response_cutoff(params, r, lowers[-1]))
    assert bits((lowers[-1], uppers[-1])).tolist() == bits(trace.final_bracket).tolist()
    return uppers, lowers


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
        uppers, _ = replay_elimination(HALF, 0.25, trace)
        diffs = np.diff(uppers)
        assert np.all(diffs[:-1] < 0.0)
        assert diffs[-1] <= 0.0

    def test_trace_invariants(self):
        for r in (0.0, 0.25, 0.5, 1.0):
            _, trace = solve_iterated_dominance(WIDE, r)
            uppers, lowers = replay_elimination(WIDE, r, trace)
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
        assert trace.rounds == 57
        assert trace.final_bracket == (1.4, 1.4000000000000001)

    def test_unchanged_bracket_ends_the_rounds(self, monkeypatch):
        # A tol far below the spacing of doubles near the cutoff: rounding
        # stops the bracket at 5.551e-14 wide in round 15,455 of the 346,285
        # budgeted. Spending the rest took 692,570 best-response calls; the
        # first round that leaves the bracket unchanged now ends the run,
        # with the message and trace that the spent budget gave.
        import regimelab.continuation as continuation

        calls = []
        best_response = continuation.best_response_cutoff

        def counted(*args):
            calls.append(None)
            return best_response(*args)

        monkeypatch.setattr(continuation, "best_response_cutoff", counted)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_iterated_dominance(ModelParams(0.001, 0.2), 0.2, tol=1e-300)
        assert len(calls) < 40_000
        assert str(excinfo.value) == STALL_1E300
        trace = excinfo.value.trace
        assert (trace.rounds, trace.converged) == (346_285, False)
        assert trace.final_bracket == (0.8005999999999945, 0.80060000000005)

    def test_memory_does_not_grow_with_the_rounds(self):
        # 10,373 rounds: keeping each round's bracket would take about 830 KB.
        params = ModelParams(sigma=1e-3, r_lower=0.2)
        tracemalloc.start()
        try:
            _, trace = solve_iterated_dominance(params, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.rounds == 10_373
        assert peak < 64 * 1024

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
            lower, upper = trace.final_bracket
            assert upper - lower <= SOLVER_TOL
            # theta_cutoff = 1 - r needs no cancellation at any sigma.
            assert eq.theta_cutoff == pytest.approx(1.0 - r, abs=SOLVER_TOL)


# The sigma axis of the verify-grid benchmark, then noise scales from where
# the round budget nears its cap to where 2*sigma nears overflow.
VERIFY_GRID_SIGMAS = (0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20)
EXTREME_SIGMAS = (1e-4, 1e-3, 1e6, 1e12, 1e15, 5e307)


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


class TestBatchedDominance:
    """iterated_cutoffs against solve_iterated_dominance, bit for bit."""

    def test_every_element_matches_the_scalar_solver(self):
        sigmas = VERIFY_GRID_SIGMAS + EXTREME_SIGMAS
        eq, rounds = iterated_cutoffs(np.array(sigmas)[:, None], _POLICIES)
        assert eq.x_cutoff.shape == eq.theta_cutoff.shape == rounds.shape == (len(sigmas), 21)
        for i, sigma in enumerate(sigmas):
            # At sigma = 1e-4 the scalar solver runs about 104,000 rounds a policy.
            columns = range(0, 21, 5) if sigma == 1e-4 else range(21)
            for j in columns:
                scalar, trace = solve_iterated_dominance(ModelParams(sigma, 0.2), _POLICIES[j])
                assert bits(eq.x_cutoff[i, j]) == bits(scalar.x_cutoff), (sigma, j)
                assert bits(eq.theta_cutoff[i, j]) == bits(scalar.theta_cutoff), (sigma, j)
                assert rounds[i, j] == trace.rounds, (sigma, j)

    def test_scalar_inputs_give_floats(self):
        eq, rounds = iterated_cutoffs(0.5, 0.25)
        scalar, trace = solve_iterated_dominance(HALF, 0.25)
        assert type(eq.x_cutoff) is float and type(eq.theta_cutoff) is float
        assert (eq.x_cutoff, eq.theta_cutoff) == (scalar.x_cutoff, scalar.theta_cutoff)
        assert rounds == trace.rounds

    def test_rounding_stall_raises_the_scalar_message(self):
        message = "cutoff bracket still 2.220e-16 wide after 60 iterations (tol=1.0e-17)"
        with pytest.raises(ConvergenceError) as scalar:
            solve_iterated_dominance(HALF, 0.3, tol=1e-17)
        assert str(scalar.value) == message
        with pytest.raises(ConvergenceError, match=r"^cutoff bracket still 2\.220e-16 wide"):
            iterated_cutoffs(0.5, 0.3, tol=1e-17)
        # A batch names its first stalled element in order, not the first to
        # stall: sigma = 0.25 stalls after 101 rounds, and at r = 0.3
        # sigma = 0.5 stalls after 60 (at r = 0 it converges).
        with pytest.raises(ConvergenceError) as first:
            solve_iterated_dominance(ModelParams(0.25, 0.2), 0.0, tol=1e-17)
        with pytest.raises(ConvergenceError) as batched:
            iterated_cutoffs(np.array([[0.25], [0.5]]), np.array([0.0, 0.3]), tol=1e-17)
        assert str(batched.value) == str(first.value) != message

    def test_unchanged_bracket_raises_the_scalar_message(self):
        with pytest.raises(ConvergenceError) as batched:
            iterated_cutoffs(0.001, 0.2, tol=1e-300)
        assert str(batched.value) == STALL_1E300

    @pytest.mark.parametrize(
        "sigmas, refused",
        [
            ([1e-6], 1e-6),
            ([0.5, 1e-310, 1e-6], 1e-310),
            ([0.5, 1e-6, 1e-310], 1e-6),
            ([5e-324], 5e-324),
            ([1e308, 1e-6], 1e308),
        ],
    )
    def test_first_refused_sigma_gets_the_scalar_message(self, sigmas, refused):
        with pytest.raises(DomainError) as scalar:
            solve_iterated_dominance(ModelParams(refused, 0.2), 0.5)
        with pytest.raises(DomainError) as batched:
            iterated_cutoffs(np.array(sigmas)[:, None], _POLICIES)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize(
        "sigmas, r, tol",
        [(0.5, 1.5, 1e-9), (0.5, np.nan, 1e-9), (-0.5, 0.5, 1e-9), (0.5, 0.5, 0.0)],
    )
    def test_invalid_input_rejected(self, sigmas, r, tol):
        with pytest.raises(DomainError):
            iterated_cutoffs(sigmas, r, tol)

    def test_empty_batch(self):
        eq, rounds = iterated_cutoffs(np.empty((0, 1)), _POLICIES)
        assert eq.x_cutoff.shape == rounds.shape == (0, 21)


@pytest.mark.parametrize("tol", [-1.0, np.nan, 0.0, np.inf])
def test_empty_batch_refuses_the_scalar_solvers_tolerances(tol):
    with pytest.raises(DomainError, match="^tol must be positive and finite$"):
        solve_iterated_dominance(HALF, 0.5, tol)
    with pytest.raises(DomainError, match="^tol must be positive and finite$"):
        iterated_cutoffs([], 0.5, tol=tol)


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
