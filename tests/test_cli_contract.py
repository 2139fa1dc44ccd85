"""The CLI contract at extreme parameters, in process through cli.run.

Every command, in CSV and JSON, over sigma from the smallest subnormal to
1.7e308 and rbar from 1e-300 to the last double below 1: each run gives an
answer or a one-line diagnostic, never a traceback, a non-finite number or
invalid JSON. Warnings are errors, so a numpy overflow counts as a break.
"""

import contextlib
import io
import json
import re
import sys
import warnings

import pytest

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


@pytest.mark.parametrize(
    "command",
    ["continuation", "continuation-iterated", "signaling", "welfare-sweep", "compare",
     "simulate", "verify"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_run_writes_nothing_to_fd_1(command, fmt, tmp_path, capfd):
    # A run inside a host process (a benchmark driver, a notebook) must leave
    # that process's stdout alone: nothing written to fd 1, directly or by a
    # stream that flushes later, and sys.stdout the same open object.
    stdout = sys.stdout
    out = tmp_path / "out"
    assert run([*_argv(command, "0.5", "0.2"), "--format", fmt, "--out", str(out)]) == 0
    assert out.stat().st_size > 0
    assert sys.stdout is stdout and not stdout.closed
    stdout.flush()
    assert capfd.readouterr().out == ""
