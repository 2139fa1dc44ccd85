"""The package's public names."""

import dataclasses
import inspect

import regimelab
from regimelab import cli, continuation, model, signaling, simulate, statics, verify

DELETED = (
    "AgentAction",
    "Fundamental",
    "NoiseRegime",
    "RegimeDecision",
    "RepResult",
    "SigmaRegime",
    "SweepRow",
    "_STREAM_BEST_RESPONSE",
    "_aggregate",
    "_checks",
    "_empirical_fall_threshold",
    "_sorted_panel",
    "agent_payoff",
    "continuation_welfare",
    "default_params_grid",
    "finite_best_response",
    "policy_strategy",
    "sigma_regime",
    "validate_params",
)


def test_public_names_resolve_once_and_deleted_names_are_gone():
    names = regimelab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(regimelab, name) is not None
    for name in DELETED:
        assert name not in names
        for module in (regimelab, cli, continuation, model, signaling, simulate, statics, verify):
            assert not hasattr(module, name)


def test_deleted_fields_and_parameters_are_gone():
    fields = [f.name for f in dataclasses.fields(regimelab.SimOutcome)]
    assert fields == ["alpha_mean", "alpha_halfwidth", "fall_frequency", "welfare_mean"]
    assert "per_rep" not in fields
    fields = [f.name for f in dataclasses.fields(regimelab.WelfareComparison)]
    assert fields == ["theta_grid", "u_low", "u_high", "region_low", "verdicts", "attack_low"]
    assert not {"r_low", "r_high", "tol"} & set(fields)
    assert list(inspect.signature(regimelab.run_verify).parameters) == ["params_list"]
