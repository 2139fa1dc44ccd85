"""The four benchmark workloads: CLI argv, work unit and output check.

Each workload is one real ``regimelab`` invocation. They are chosen so that
every layer a planned optimisation touches does most of the work in one
workload and almost none in another (README.md has the rationale and the
metric-to-workload map). The argv is built here from the benchmark's own
arguments; the program only ever sees the generated argv. Only mc-grid has
random inputs, so it is the only workload whose argv uses the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

# welfare-sweep and compare share one dense grid, 0:7:0.0001.
_DENSE = checks.theta_grid(0.0, 0.0001, 70_001)
# mc-grid's grid, 0:1:0.05.
_MC = checks.theta_grid(0.0, 0.05, 21)
_MC_AGENTS = 1_000_000
_MC_REPS = 20

_VERIFY_SIGMAS = "0.1,0.2,0.35,0.5,0.75,1,1.5,2,3,4,5,6,8,10,12,15,20"
_VERIFY_RBARS = (
    "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9"
)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation with its work unit and its independent output check."""

    name: str
    suffix: str
    work_units: float
    argv: Callable[[int], list[str]]
    check: Callable[[str, int], None]


def _sweep_argv(seed: int) -> list[str]:
    return [
        "welfare-sweep", "--sigma", "3", "--rbar", "0.2",
        "--rprime", "0.5,0.8,1.0", "--theta", "0:7:0.0001",
    ]


def _compare_argv(seed: int) -> list[str]:
    return [
        "compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
        "--rprime-hi", "0.9", "--theta", "0:7:0.0001", "--format", "json",
    ]


def _mc_argv(seed: int) -> list[str]:
    return [
        "simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
        "--theta", "0:1:0.05", "--agents", str(_MC_AGENTS), "--reps", str(_MC_REPS),
        "--seed", str(seed),
    ]


def _verify_argv(seed: int) -> list[str]:
    return ["verify", "--sigma", _VERIFY_SIGMAS, "--rbar", _VERIFY_RBARS]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-dense",
            suffix=".csv",
            work_units=3 * len(_DENSE),
            argv=_sweep_argv,
            check=lambda text, seed: checks.check_sweep_csv(
                text, 3.0, 0.2, [0.5, 0.8, 1.0], _DENSE
            ),
        ),
        Workload(
            name="compare-json",
            suffix=".json",
            work_units=len(_DENSE),
            argv=_compare_argv,
            check=lambda text, seed: checks.check_compare_json(
                text, 3.0, 0.2, 0.8, 0.9, _DENSE
            ),
        ),
        Workload(
            name="mc-grid",
            suffix=".csv",
            work_units=len(_MC) * _MC_REPS * _MC_AGENTS,
            argv=_mc_argv,
            check=lambda text, seed: checks.check_simulate_csv(
                text, 0.5, 0.2, 0.25, _MC, _MC_AGENTS, _MC_REPS, seed
            ),
        ),
        Workload(
            name="verify-grid",
            suffix=".json",
            work_units=619_203,
            argv=_verify_argv,
            check=lambda text, seed: checks.check_verify_json(text),
        ),
    )
}
