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
    continuation_welfare,
    regime_fall_threshold,
    solve_iterated_dominance,
    success_prob_given_signal,
)
from .cli import run
from .errors import BoundaryError, ConvergenceError, DomainError, RegimeLabError
from .model import (
    AgentAction,
    Fundamental,
    ModelParams,
    RegimeDecision,
    agent_payoff,
    cost,
    policymaker_payoff,
    validate_params,
)
from .signaling import (
    PolicyRegion,
    SignalingEquilibrium,
    aggregate_attack_no_intervention,
    classify_region,
    ex_post_welfare,
    max_policy,
    policy_strategy,
    solve_signaling,
)
from .simulate import (
    RepResult,
    SimConfig,
    SimOutcome,
    finite_best_response,
    simulate_continuation,
    simulate_signaling,
)
from .statics import (
    NoiseRegime,
    SigmaRegime,
    SweepRow,
    Verdict,
    WelfareComparison,
    compare_welfare,
    critical_sigma,
    lower_threshold_sensitivity,
    sigma_regime,
    sweep,
    welfare_derivative_in_rprime,
)
from .verify import CheckResult, VerifyReport, default_params_grid, run_verify

__version__ = "0.1.0"

__all__ = [
    "AgentAction",
    "BoundaryError",
    "CheckResult",
    "ContinuationEquilibrium",
    "ConvergenceError",
    "DomainError",
    "DominanceTrace",
    "Fundamental",
    "ModelParams",
    "NoiseRegime",
    "PolicyRegion",
    "RegimeDecision",
    "RegimeLabError",
    "RepResult",
    "SigmaRegime",
    "SignalingEquilibrium",
    "SimConfig",
    "SimOutcome",
    "SweepRow",
    "Verdict",
    "VerifyReport",
    "WelfareComparison",
    "agent_payoff",
    "aggregate_attack_no_intervention",
    "attack_mass",
    "best_response_cutoff",
    "classify_region",
    "closed_form_thresholds",
    "compare_welfare",
    "continuation_welfare",
    "cost",
    "critical_sigma",
    "default_params_grid",
    "ex_post_welfare",
    "finite_best_response",
    "lower_threshold_sensitivity",
    "max_policy",
    "policy_strategy",
    "policymaker_payoff",
    "regime_fall_threshold",
    "run",
    "run_verify",
    "sigma_regime",
    "simulate_continuation",
    "simulate_signaling",
    "solve_iterated_dominance",
    "solve_signaling",
    "success_prob_given_signal",
    "sweep",
    "validate_params",
    "welfare_derivative_in_rprime",
]
