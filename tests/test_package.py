"""The package's public names."""

import dataclasses
import importlib.util
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


# --- how the CLI keeps OpenSSL out of its process -------------------------------

_SIMULATE = [
    "simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
    "--theta", "0:1:0.5", "--agents", "1000", "--reps", "2", "--seed", "7",
]
# main() ends the process by os._exit, so the report is printed from inside it.
_AT_EXIT = """
import json, os, sys
{before}
from regimelab.cli import main
sys.argv = ["regimelab", *{argv!r}]
real_exit = os._exit

def report_then_exit(code):
    maps = open("/proc/self/maps").read()
    print(json.dumps([code, "libcrypto" in maps, repr(sys.modules.get("_hashlib", "absent"))]))
    sys.stdout.flush()
    real_exit(code)

os._exit = report_then_exit
main()
"""

linux_maps = pytest.mark.skipif(
    not os.path.isfile("/proc/self/maps"), reason="reads the mappings in /proc/self/maps"
)
builtin_digests = pytest.mark.skipif(
    not all(importlib.util.find_spec(name) for name in cli._BUILTIN_DIGESTS),
    reason="this build lacks a builtin digest module, so the CLI keeps _hashlib",
)


def fresh(args, **kw):
    """A fresh interpreter with this source tree first on its path."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, **kw
    )


def main_at_exit(out, before=""):
    """[exit code, libcrypto mapped, repr of sys.modules' _hashlib] after main() writes out."""
    proc = fresh(["-c", _AT_EXIT.format(before=before, argv=[*_SIMULATE, "--out", str(out)])])
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def in_process_bytes(tmp_path):
    out = tmp_path / "in_process.csv"
    assert cli.run([*_SIMULATE, "--out", str(out)]) == 0
    return out.read_bytes()


@linux_maps
@builtin_digests
def test_main_never_maps_libcrypto(tmp_path):
    out = tmp_path / "main.csv"
    assert main_at_exit(out) == [0, False, "None"]
    assert out.read_bytes() == in_process_bytes(tmp_path)


def test_run_leaves_hashlib_to_the_library(tmp_path):
    # run() blocks nothing: it leaves _hashlib as importing numpy.random alone does.
    report = "; print(repr(sys.modules.get('_hashlib', 'absent')))"
    argv = [*_SIMULATE, "--out", str(tmp_path / "run.csv")]
    via_run = fresh(["-c", f"import sys; from regimelab.cli import run; run({argv!r})" + report])
    alone = fresh(["-c", "import sys, numpy.random" + report])
    assert via_run.stderr == alone.stderr == ""
    assert via_run.stdout == alone.stdout


@builtin_digests
def test_numpy_random_loads_over_the_builtin_digests():
    proc = fresh(["-c", (
        "import sys; sys.modules['_hashlib'] = None; "
        "import secrets, hmac, hashlib, numpy.random; "
        "print(hashlib.sha256(b'abc').hexdigest())"
    )], check=True)
    assert proc.stderr == ""
    assert proc.stdout == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad\n"


@linux_maps
def test_without_a_builtin_digest_main_keeps_hashlib(tmp_path):
    out = tmp_path / "main.csv"
    code, _, hashlib_module = main_at_exit(out, before="sys.modules['_md5'] = None")
    assert code == 0
    assert hashlib_module.startswith("<module '_hashlib'")
    assert out.read_bytes() == in_process_bytes(tmp_path)


def test_the_cli_warns_of_nothing(tmp_path):
    out = tmp_path / "main.csv"
    proc = fresh(["-W", "error", "-m", "regimelab", *_SIMULATE, "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == in_process_bytes(tmp_path)
