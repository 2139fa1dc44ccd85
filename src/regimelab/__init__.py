"""Numerical equilibrium laboratory for a regime-change game with policy signalling.

The package solves the fixed-policy coordination game in closed form and by
iterated dominance, constructs the family of active-policy signalling
equilibria, evaluates piecewise attack and welfare curves, derives the
welfare comparative statics in the intervention level, and cross-checks the
continuum results against a finite-agent Monte Carlo. A CLI (``regimelab``)
exposes all of it and emits CSV/JSON sweep data.

Importing the package loads no submodule and no numpy: each public name is
imported from its submodule on first use (PEP 562). That lets the CLI load
numpy with its own BLAS setting, and it leaves a library user's alone. The
name is looked up on every use and not stored here, so the package holds
no second binding of any function.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_SUBMODULE = {
    "cli": ("run",),
    "continuation": (
        "ContinuationEquilibrium",
        "DominanceTrace",
        "attack_mass",
        "best_response_cutoff",
        "closed_form_thresholds",
        "iterated_cutoffs",
        "regime_fall_threshold",
        "solve_iterated_dominance",
        "success_prob_given_signal",
    ),
    "errors": ("BoundaryError", "ConvergenceError", "DomainError", "RegimeLabError"),
    "model": ("ModelParams", "cost", "policymaker_payoff"),
    "signaling": (
        "PolicyRegion",
        "SignalingEquilibrium",
        "aggregate_attack_no_intervention",
        "classify_region",
        "ex_post_welfare",
        "max_policy",
        "solve_signaling",
    ),
    "simulate": ("SimConfig", "SimOutcome", "simulate_continuation", "simulate_signaling"),
    "statics": (
        "Verdict",
        "WelfareComparison",
        "compare_slices",
        "compare_welfare",
        "critical_sigma",
        "lower_threshold_sensitivity",
        "sweep",
        "welfare_derivative_in_rprime",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_verify"),
}
_SOURCE = {name: module for module, names in _SUBMODULE.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
