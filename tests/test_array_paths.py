"""The array path of every curve function against the scalar code it replaced.

The reference functions below are the per-point implementations, copied
verbatim in logic (if-chains and min/max clamps on Python floats). The
array path must reproduce them bit for bit at every theta, including theta
exactly on each kink and one ulp either side, both for a scalar eq and for
a whole family of equilibria broadcast against the theta grid.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelab import (
    BoundaryError,
    DomainError,
    ModelParams,
    PolicyRegion,
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

# --- reference: the scalar implementations -----------------------------------


def ref_attack_mass(params, x_cutoff, theta):
    raw = (x_cutoff - theta + params.sigma) / (2.0 * params.sigma)
    return min(1.0, max(0.0, raw))


def ref_success_prob(params, theta_cutoff, x):
    raw = (theta_cutoff - x + params.sigma) / (2.0 * params.sigma)
    return min(1.0, max(0.0, raw))


def ref_aggregate_attack(params, eq, theta):
    sigma = params.sigma
    full_attack_below = eq.theta_upper + 2.0 * sigma * (eq.theta_lower - 1.0)
    if theta < full_attack_below:
        return 1.0
    if theta >= eq.theta_no_attack:
        return 0.0
    raw = eq.theta_lower + (eq.theta_upper - theta) / (2.0 * sigma)
    return min(1.0, max(0.0, raw))


def ref_welfare(params, eq, theta):
    if theta < eq.theta_lower:
        return 0.0
    if theta < eq.theta_upper:
        return theta - eq.theta_lower
    if theta < eq.theta_no_attack:
        inv = 1.0 / (2.0 * params.sigma)
        ratio = params.r_lower / (1.0 - params.r_lower)
        return (1.0 + inv) * theta - (inv - ratio) * eq.theta_lower - 1.0
    return theta


def ref_region(eq, theta):
    if theta < eq.theta_lower:
        return PolicyRegion.ABANDON
    if theta <= eq.theta_upper:
        return PolicyRegion.INTERVENE
    if theta < eq.theta_no_attack:
        return PolicyRegion.DEFEND_UNDER_ATTACK
    return PolicyRegion.NO_ATTACK


def ref_derivative(params, eq, theta):
    """The scalar derivative, with NaN where it refused a kink."""
    if theta in (eq.theta_lower, eq.theta_upper, eq.theta_no_attack):
        return math.nan
    slope = eq.r_prime - params.r_lower
    region = ref_region(eq, theta)
    if region is PolicyRegion.INTERVENE:
        return -slope
    if region is PolicyRegion.DEFEND_UNDER_ATTACK:
        inv = 1.0 / (2.0 * params.sigma)
        ratio = params.r_lower / (1.0 - params.r_lower)
        return -(inv - ratio) * slope
    return 0.0


# --- strategies ---------------------------------------------------------------

params_st = st.builds(
    ModelParams,
    sigma=st.floats(0.05, 10.0),
    r_lower=st.floats(0.01, 0.99),
)


@st.composite
def family_case(draw):
    """Parameters, 1-4 family members (r_tilde included sometimes), theta points."""
    params = draw(params_st)
    r_tilde = max_policy(params)
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
    span = r_tilde - params.r_lower
    r_primes = [min(params.r_lower + f * span, r_tilde) for f in fractions]
    thetas = draw(st.lists(st.floats(-20.0, 20.0), max_size=20))
    # Every kink of every member, exactly and one ulp either side.
    for r_prime in r_primes:
        eq = solve_signaling(params, r_prime)
        full = eq.theta_upper + 2.0 * params.sigma * (eq.theta_lower - 1.0)
        for kink in (eq.theta_lower, eq.theta_upper, eq.theta_no_attack, full, eq.x_prime):
            thetas += [math.nextafter(kink, -math.inf), kink, math.nextafter(kink, math.inf)]
    return params, r_primes, np.array(thetas)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# --- tests --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(family_case())
def test_curves_on_a_grid_match_the_scalar_code(case):
    params, r_primes, thetas = case
    for r_prime in r_primes:
        eq = solve_signaling(params, r_prime)
        t = thetas.tolist()
        assert bits(aggregate_attack_no_intervention(params, eq, thetas)) == bits(
            [ref_aggregate_attack(params, eq, x) for x in t]
        )
        assert bits(ex_post_welfare(params, eq, thetas)) == bits(
            [ref_welfare(params, eq, x) for x in t]
        )
        assert bits(welfare_derivative_in_rprime(params, eq, thetas)) == bits(
            [ref_derivative(params, eq, x) for x in t]
        )
        assert bits(attack_mass(params, eq.x_prime, thetas)) == bits(
            [ref_attack_mass(params, eq.x_prime, x) for x in t]
        )
        assert bits(success_prob_given_signal(params, eq.theta_upper, thetas)) == bits(
            [ref_success_prob(params, eq.theta_upper, x) for x in t]
        )
        regions = classify_region(eq, thetas)
        assert all(a is ref_region(eq, x) for a, x in zip(regions, t))


@settings(max_examples=100, deadline=None)
@given(family_case())
def test_family_fields_broadcast_against_theta(case):
    params, r_primes, thetas = case
    family = solve_signaling(params, np.array(r_primes)[:, None])
    welfare = ex_post_welfare(params, family, thetas)
    attack = aggregate_attack_no_intervention(params, family, thetas)
    deriv = welfare_derivative_in_rprime(params, family, thetas)
    regions = classify_region(family, thetas)
    assert welfare.shape == attack.shape == deriv.shape == (len(r_primes), thetas.size)
    for k, r_prime in enumerate(r_primes):
        eq = solve_signaling(params, r_prime)
        assert bits(family.theta_no_attack[k]) == bits([eq.theta_no_attack])
        assert bits(welfare[k]) == bits(ex_post_welfare(params, eq, thetas))
        assert bits(attack[k]) == bits(aggregate_attack_no_intervention(params, eq, thetas))
        assert bits(deriv[k]) == bits(welfare_derivative_in_rprime(params, eq, thetas))
        assert list(regions[k]) == list(classify_region(eq, thetas))


@settings(max_examples=100, deadline=None)
@given(family_case())
def test_scalar_theta_returns_plain_python_values(case):
    params, r_primes, thetas = case
    eq = solve_signaling(params, r_primes[0])
    for theta in thetas.tolist():
        for fn, ref in (
            (ex_post_welfare, ref_welfare),
            (aggregate_attack_no_intervention, ref_aggregate_attack),
        ):
            value = fn(params, eq, theta)
            assert type(value) is float
            assert bits([value]) == bits([ref(params, eq, theta)])
        assert type(attack_mass(params, eq.x_prime, theta)) is float
        assert classify_region(eq, theta) is ref_region(eq, theta)
        expected = ref_derivative(params, eq, theta)
        if math.isnan(expected):
            with pytest.raises(BoundaryError):
                welfare_derivative_in_rprime(params, eq, theta)
        else:
            value = welfare_derivative_in_rprime(params, eq, theta)
            assert type(value) is float and bits([value]) == bits([expected])


def test_array_family_rejects_any_member_outside_the_family():
    params = ModelParams(sigma=3.0, r_lower=0.2)
    with pytest.raises(DomainError, match="r_prime must lie in"):
        solve_signaling(params, np.array([0.5, 0.8, 2.0]))
    with pytest.raises(DomainError, match="r_prime must lie in"):
        solve_signaling(params, np.array([0.2, 0.8]))


def test_verify_skips_each_kink_point_on_its_own():
    # At r_prime = r_tilde theta_upper sits one ulp above theta_lower, and the
    # intervene-band midpoint rounds onto a kink: that one point is skipped,
    # not the whole family member.
    points = {res.name: res.points for res in run_verify([ModelParams(0.75, 0.15)]).results}
    assert points["statics.derivative-signs"] == 99
    assert points["statics.derivative-finite-difference"] == 96


POLICIES = np.linspace(0.0, 1.0, 21)


@pytest.mark.parametrize("sigma", [1e-3, 0.5, 3.0, 1e6, 1e300])
def test_closed_form_on_a_policy_array_matches_the_scalar_calls(sigma):
    params = ModelParams(sigma=sigma, r_lower=0.2)
    cont = closed_form_thresholds(params, POLICIES)
    scalar = [closed_form_thresholds(params, float(r)) for r in POLICIES]
    for field in ("r", "x_cutoff", "theta_cutoff"):
        assert bits(getattr(cont, field)) == bits([getattr(eq, field) for eq in scalar])


def test_closed_form_on_a_scalar_policy_gives_floats():
    eq = closed_form_thresholds(ModelParams(sigma=0.5, r_lower=0.2), 0.25)
    assert type(eq.x_cutoff) is float and type(eq.theta_cutoff) is float
    assert (eq.x_cutoff, eq.theta_cutoff) == (1.0, 0.75)


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_closed_form_rejects_any_policy_outside_the_unit_interval(bad):
    params = ModelParams(sigma=0.5, r_lower=0.2)
    with pytest.raises(DomainError, match=r"r must lie in \[0,1\]"):
        closed_form_thresholds(params, np.array([0.0, 0.5, bad, 1.0]))


def test_closed_form_on_an_array_refuses_overflow_without_warnings():
    params = ModelParams(sigma=1e308, r_lower=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="continuation thresholds are not finite"):
            closed_form_thresholds(params, POLICIES)
