"""The package's public names."""

import regimelab
from regimelab import cli, continuation, model, signaling, simulate, statics, verify

DELETED = (
    "AgentAction",
    "Fundamental",
    "SweepRow",
    "agent_payoff",
    "continuation_welfare",
    "default_params_grid",
    "policy_strategy",
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
