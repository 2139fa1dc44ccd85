"""The CLI contract at extreme parameters, in process through cli.run.

Every command, in CSV and JSON, over sigma from the smallest subnormal to
1.7e308 and rbar from 1e-300 to the last double below 1: each run gives an
answer or a one-line diagnostic, never a traceback, a non-finite number or
invalid JSON. Warnings are errors, so a numpy overflow counts as a break.
"""

import contextlib
import io
import json
import os
import re
import signal
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelab import run

SIGMAS = ["5e-324", "1e-300", "1e-6", "0.5", "1e6", "5735514493980689", "1e300", "1.7e308"]
RBARS = ["1e-300", "0.2", "0.9999999999999999"]
# A negative grid goes in one token: argparse reads "--theta -1:..." as a flag.
THETA = "--theta=-1:2:0.5"
_NOT_FINITE_TOKEN = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _argv(command: str, sigma: str, rbar: str) -> list[str]:
    """The command at (sigma, rbar), with intervention levels halfway from rbar to 1."""
    params = ["--sigma", sigma, "--rbar", rbar]
    rprime = repr((float(rbar) + 1) / 2)
    return {
        "continuation": ["continuation", *params, "--r", rbar],
        "continuation-iterated": ["continuation", *params, "--r", rbar, "--solver", "iterated"],
        "signaling": ["signaling", *params, "--rprime", rprime],
        "welfare-sweep": ["welfare-sweep", *params, "--rprime", rprime, THETA],
        "compare": ["compare", *params, "--rprime", rprime, "--rprime-hi", "1", THETA],
        "simulate": ["simulate", *params, "--rprime", rprime, THETA,
                     "--agents", "100", "--reps", "3"],
        "verify": ["verify", *params],
    }[command]


def _broken_promises(argv: list[str], fmt: str) -> list[str]:
    """One line per promise that the run of argv in format fmt breaks, naming argv."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run([*argv, "--format", fmt])
    stdout, stderr = out.getvalue(), err.getvalue()
    broken = []
    if code not in (0, 1, 2):
        broken.append(f"exit code {code}")
    if code == 2 and stderr.count("\n") != 1:
        broken.append(f"exit 2 with stderr {stderr!r}")
    if code == 0 and stderr:
        broken.append(f"exit 0 with stderr {stderr!r}")
    if _NOT_FINITE_TOKEN.search(stdout):
        broken.append("a non-finite token on stdout")
    if fmt == "json" and stdout:
        try:
            json.loads(stdout)
        except ValueError as exc:
            broken.append(f"invalid JSON: {exc}")
    return [f"{' '.join(argv)} --format {fmt}: {reason}" for reason in broken]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command",
    ["continuation", "continuation-iterated", "signaling", "welfare-sweep", "compare",
     "simulate", "verify"],
)
def test_every_extreme_parameter_point_keeps_the_contract(command, fmt):
    broken = [
        line
        for sigma in SIGMAS
        for rbar in RBARS
        for line in _broken_promises(_argv(command, sigma, rbar), fmt)
    ]
    assert broken == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_signal_past_the_float_range_gives_an_answer(fmt):
    # theta + eps overflows to inf for eps near sigma, and inf is past the
    # cutoff: about half the agents attack, and nothing warns.
    argv = ["simulate", "--sigma", "8e307", "--rbar", "0.2", "--r", "0.25",
            "--x-cutoff", "1.7e308", "--theta", "1.7e308", "--agents", "100", "--reps", "3"]
    assert _broken_promises(argv, fmt) == []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([*argv, "--format", fmt]) == 0
    assert "0.513333333" in out.getvalue()


_COMMANDS = ["continuation", "continuation-iterated", "signaling", "welfare-sweep", "compare",
             "simulate", "verify"]


def _assert_writes_only_to(argv: list[str], out) -> None:
    # A run inside a host process (a benchmark driver, a notebook) must leave
    # that process alone: nothing written to fd 1, directly or by a stream
    # that flushes later, sys.stdout the same open object, and the SIGPIPE
    # handler, which main() alone sets, as it was.
    stdout = sys.stdout
    sigpipe = getattr(signal, "SIGPIPE", None)
    handler = signal.getsignal(sigpipe) if sigpipe is not None else None
    assert run([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size > 0
    assert sys.stdout is stdout and not stdout.closed
    if sigpipe is not None:
        assert signal.getsignal(sigpipe) == handler


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_run_writes_nothing_to_fd_1(command, fmt, tmp_path, capfd):
    _assert_writes_only_to([*_argv(command, "0.5", "0.2"), "--format", fmt], tmp_path / "out")
    sys.stdout.flush()
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_config_run_writes_nothing_to_fd_1(command, fmt, tmp_path, capfd):
    # The same run with every option but --out read from a --config file.
    name, *flags = _argv(command, "0.5", "0.2")
    lines, tokens = [f"format={fmt}"], iter(flags)
    for token in tokens:  # --key value pairs, or one --key=value token
        key = token.removeprefix("--")
        lines.append(key if "=" in key else f"{key}={next(tokens)}")
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_writes_only_to([name, "--config", str(config)], tmp_path / "out")
    sys.stdout.flush()
    assert capfd.readouterr().out == ""


# Each subcommand's long options besides --config (simulate once per mode),
# and the values the fuzzer draws for them: those the option accepts, then
# malformed tokens, extremes and out-of-range numbers.
_FUZZ_OPTIONS = {
    "continuation": ("sigma", "rbar", "r", "solver", "tol", "format", "out"),
    "signaling": ("sigma", "rbar", "rprime", "format", "out"),
    "welfare-sweep": ("sigma", "rbar", "rprime", "theta", "format", "out"),
    "compare": ("sigma", "rbar", "rprime", "rprime-hi", "theta", "tol", "format", "out"),
    "simulate": ("sigma", "rbar", "r", "x-cutoff", "theta", "agents", "reps", "seed",
                 "format", "out"),
    "simulate-signaling": ("sigma", "rbar", "rprime", "theta", "agents", "reps", "seed",
                           "format", "out"),
    "verify": ("sigma", "rbar", "format", "out"),
}
_MALFORMED = ["1e309", "nan", "", "abc"]
_POOLS = {
    "sigma": (SIGMAS, _MALFORMED),
    "rbar": (RBARS, ["0", "1", "0.2,0.5", *_MALFORMED]),
    "r": (["0.25", "0", "1", "1e-300", "2"], ["-1", *_MALFORMED]),
    "rprime": (["0.8", "0.6"], ["0.2", "0", "2", *_MALFORMED]),
    "rprime-hi": (["0.9", "1"], ["0.5", "2", *_MALFORMED]),
    "theta": (["0:1:0.5", "-1:2:0.5", "1.0", "0:7:0.01", "1e300"],
              ["1:0:0.1", "0:1:0", "0:1", "a:b:c", "0:1e300:1e-300", "0:1:1e309", *_MALFORMED]),
    "x-cutoff": (["1.0", "-5", "1e300"], _MALFORMED),
    "tol": (["1e-9", "1e-3"], ["0", "-1", *_MALFORMED]),
    "agents": (["1", "1000"], ["0", "-5", "1.5", "100000001", *_MALFORMED]),
    "reps": (["1", "3"], ["0", "-1", "2.5", "1000000000", *_MALFORMED]),
    "seed": (["0", "42", "18446744073709551615"],
             ["18446744073709551616", "-1", "1.5", *_MALFORMED]),
    "solver": (["closed-form", "iterated"], ["foo"]),
    "format": (["csv", "json"], ["xml", ""]),
}
# verify and the iterated solver take up to 10**6 dominance rounds at a sigma
# near 1e-5: a limit on run time only, so they draw sigma >= 1e-3 here, and
# the smaller ones stay with test_every_extreme_parameter_point_keeps_the_contract.
_FAST_SIGMAS = ["1e-3", *(s for s in SIGMAS if float(s) >= 1e-3)]
_TAILS = [["--bogus", "1"], ["--sig", "1"], ["--sigma"], ["--format"]]
# Options with a default (rbar has none outside continuation), which may be absent.
_DEFAULTED = {"solver", "tol", "format", "out", "x-cutoff", "agents", "reps", "seed"}


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_any_argv_gives_an_answer_or_one_error_line(data):
    name = data.draw(st.sampled_from(sorted(_FUZZ_OPTIONS)), label="command")
    command = name.removesuffix("-signaling")
    with tempfile.TemporaryDirectory() as tmp:
        # A file, and a directory, which cannot be opened as one.
        out_file = os.path.join(tmp, "out")
        pools = {**_POOLS, "out": ([out_file], [tmp])}
        if command == "continuation":
            pools["sigma"] = (_FAST_SIGMAS, _MALFORMED)
        elif command == "verify":  # lists of points
            pools["sigma"] = ([*_FAST_SIGMAS, "0.5,3"], _MALFORMED)
            pools["rbar"] = ([*RBARS, "0.2,0.5"], ["0", "1", *_MALFORMED])
        elif command == "welfare-sweep":  # a list of levels
            pools["rprime"] = (["0.8", "1", "0.5,0.8,1.0"], _POOLS["rprime"][1])
        # Half the examples give every required option an accepted value, so
        # they reach the solvers and writers; the others may break anything.
        clean = data.draw(st.booleans(), label="accepted values only")
        flags, lines = [], []
        for option in _FUZZ_OPTIONS[name]:
            places = ["flag", "config"]
            if not clean or option in _DEFAULTED:
                places.append("absent")
            where = data.draw(st.sampled_from(places), label=option)
            accepted, refused = pools[option]
            refuse = not clean and data.draw(st.booleans(), label=f"{option} refused")
            value = data.draw(st.sampled_from(refused if refuse else accepted), label=option)
            if where == "flag":
                flags.append(f"--{option}={value}")
            elif where == "config":
                lines.append(f"{option}={value}")
        argv = [command, *flags]
        if lines or data.draw(st.booleans(), label="config file without lines"):
            config = os.path.join(tmp, "run.cfg")
            text = "".join(f"{line}\n" for line in lines).encode()
            if not clean and data.draw(st.booleans(), label="non-UTF-8 byte"):
                text += b"# \xff\n"
            with open(config, "wb") as fh:
                fh.write(text)
            argv += ["--config", config]
        if not clean and data.draw(st.booleans(), label="malformed tail"):
            argv += data.draw(st.sampled_from(_TAILS), label="tail")

        sigpipe = getattr(signal, "SIGPIPE", None)
        handler = signal.getsignal(sigpipe) if sigpipe is not None else None
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
        if os.path.isfile(out_file):
            with open(out_file, encoding="utf-8") as fh:
                stdout += fh.read()

    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    elif code == 1:
        assert command == "verify"
        assert re.fullmatch(r"verify: \d+ of \d+ checks failed: [^\n]+\n", stderr), stderr
    else:
        assert stderr == ""
    assert not _NOT_FINITE_TOKEN.search(stdout)
    if stdout.startswith(("[", "{")):
        json.loads(stdout, parse_constant=_refuse_constant)
    if sigpipe is not None:
        assert signal.getsignal(sigpipe) == handler
