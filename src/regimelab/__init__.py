"""Numerical equilibrium laboratory for a regime-change game with policy signalling.

The package solves the fixed-policy coordination game in closed form and by
iterated dominance, constructs the family of active-policy signalling
equilibria, evaluates piecewise attack and welfare curves, derives the
welfare comparative statics in the intervention level, and cross-checks the
continuum results against a finite-agent Monte Carlo. A CLI (``regimelab``)
exposes all of it and emits CSV/JSON sweep data.
"""

from .continuation import (
    ContinuationEquilibrium,
    DominanceTrace,
    attack_mass,
    best_response_cutoff,
    closed_form_thresholds,
    iterated_cutoffs,
    regime_fall_threshold,
    solve_iterated_dominance,
    success_prob_given_signal,
)
from .cli import run
from .errors import BoundaryError, ConvergenceError, DomainError, RegimeLabError
from .model import (
    ModelParams,
    cost,
    policymaker_payoff,
)
from .signaling import (
    PolicyRegion,
    SignalingEquilibrium,
    aggregate_attack_no_intervention,
    classify_region,
    ex_post_welfare,
    max_policy,
    solve_signaling,
)
from .simulate import (
    SimConfig,
    SimOutcome,
    finite_best_response,
    simulate_continuation,
    simulate_signaling,
)
from .statics import (
    Verdict,
    WelfareComparison,
    compare_welfare,
    critical_sigma,
    lower_threshold_sensitivity,
    sweep,
    welfare_derivative_in_rprime,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CheckResult",
    "ContinuationEquilibrium",
    "ConvergenceError",
    "DomainError",
    "DominanceTrace",
    "ModelParams",
    "PolicyRegion",
    "RegimeLabError",
    "SignalingEquilibrium",
    "SimConfig",
    "SimOutcome",
    "Verdict",
    "VerifyReport",
    "WelfareComparison",
    "aggregate_attack_no_intervention",
    "attack_mass",
    "best_response_cutoff",
    "classify_region",
    "closed_form_thresholds",
    "compare_welfare",
    "cost",
    "critical_sigma",
    "ex_post_welfare",
    "finite_best_response",
    "iterated_cutoffs",
    "lower_threshold_sensitivity",
    "max_policy",
    "policymaker_payoff",
    "regime_fall_threshold",
    "run",
    "run_verify",
    "simulate_continuation",
    "simulate_signaling",
    "solve_iterated_dominance",
    "solve_signaling",
    "success_prob_given_signal",
    "sweep",
    "welfare_derivative_in_rprime",
]
