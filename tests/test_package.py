"""The package's public names."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_each_public_name_is_its_defining_module_s_own_object():
    for name in regimelab.__all__:
        value = getattr(regimelab, name)
        assert value.__module__.startswith("regimelab.")
        assert vars(sys.modules[value.__module__])[name] is value
    assert set(regimelab.__all__) <= set(dir(regimelab))
    # Looked up on each use, never stored: the package holds no second binding.
    assert not set(regimelab.__all__) & set(vars(regimelab))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        regimelab.no_such_name


# --- how the package and the CLI load numpy's BLAS ------------------------------

_SRC = str(Path(regimelab.__file__).resolve().parent.parent)
_REPORT = (
    "import json, os, sys; print(json.dumps([len(os.listdir('/proc/self/task')), "
    "os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules]))"
)

linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


def after(imports, blas=None):
    """[threads, OPENBLAS_NUM_THREADS, numpy loaded] in a fresh interpreter after imports."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _SRC
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run(
        [sys.executable, "-c", f"{imports}; {_REPORT}"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


@linux_only
def test_cli_loads_numpy_with_one_thread_and_restores_the_environment():
    assert after("import regimelab.cli") == [1, None, True]


@linux_only
def test_a_user_blas_setting_wins():
    threads, blas, _ = after("import regimelab.cli", blas="2")
    assert blas == "2"
    assert threads == after("import numpy", blas="2")[0]


@linux_only
def test_the_package_alone_loads_no_numpy():
    assert after("import regimelab") == [1, None, False]


@linux_only
def test_the_library_leaves_blas_alone():
    assert after("import regimelab, regimelab.signaling") == after("import numpy")
