"""Command-line front end.

Six subcommands map onto the solver modules:

    continuation   fixed-policy thresholds (closed form or iterated dominance)
    signaling      threshold bundle of one signalling equilibrium
    welfare-sweep  region / attack / welfare over a theta grid
    compare        welfare under two intervention levels, with verdicts
    simulate       finite-agent Monte Carlo at given fundamentals
    verify         cross-checking suite over a parameter grid

Outputs are CSV (default) or JSON, to stdout or --out. Numbers are written
with 9 significant digits; CSV uses a header row, UTF-8, LF line endings.
Theta grids are written lo:hi:step, whose points never pass hi (hi itself
is included when the span is a whole number of steps), or as a single
number. Every number must be finite. A flat key=value file passed via
--config supplies defaults; explicit flags win. Exit codes: 0 success,
1 verification failures, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from enum import Enum
from itertools import repeat, starmap

import numpy as np

from .continuation import closed_form_thresholds, solve_iterated_dominance
from .errors import DomainError, RegimeLabError
from .model import ModelParams, validate_params
from .signaling import (
    aggregate_attack_no_intervention,
    classify_region,
    ex_post_welfare,
    solve_signaling,
)
from .simulate import SimConfig, simulate_continuation, simulate_signaling
from .statics import compare_welfare
from .verify import DEFAULT_RBAR_GRID, DEFAULT_SIGMA_GRID, run_verify

_COLUMNS = {
    "continuation": ("sigma", "r", "x_cutoff", "theta_cutoff"),
    "signaling": (
        "sigma",
        "rbar",
        "rprime",
        "r_tilde",
        "theta_lower",
        "theta_upper",
        "x_prime",
        "theta_no_attack",
    ),
    "welfare-sweep": ("sigma", "rbar", "rprime", "theta", "region", "attack", "welfare"),
    "compare": (
        "sigma",
        "rbar",
        "rprime",
        "theta",
        "region",
        "attack",
        "welfare",
        "rprime_hi",
        "welfare_hi",
        "verdict",
    ),
    "simulate": (
        "sigma",
        "rbar",
        "mode",
        "r",
        "x_cutoff",
        "theta",
        "n_agents",
        "n_reps",
        "seed",
        "alpha_mean",
        "alpha_hw",
        "fall_freq",
        "welfare_mean",
    ),
    "verify": ("name", "passed", "points", "max_error", "tolerance"),
}


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_float(text: str, label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"{label} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise DomainError(f"{label} must be finite, got {text!r}")
    return value


def _parse_int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{label} must be an integer, got {text!r}")


def _parse_float_list(text: str, label: str) -> list[float]:
    if text.strip() == "":
        return []
    return [_parse_float(part, label) for part in text.split(",")]


# Ten million points (a 320 MB list of floats, 140 times the densest benchmark
# grid) is past any table; a larger count is a mistyped step, refused unbuilt.
_MAX_GRID_POINTS = 10_000_000


def _parse_theta_spec(text: str) -> list[float]:
    """Parse 'lo:hi:step' (endpoints inclusive, count snapped) or one number."""
    if ":" not in text:
        return [_parse_float(text, "theta")]
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"theta grid must be lo:hi:step, got {text!r}")
    lo = _parse_float(parts[0], "theta grid lo")
    hi = _parse_float(parts[1], "theta grid hi")
    step = _parse_float(parts[2], "theta grid step")
    if step <= 0:
        raise DomainError("theta grid step must be positive")
    if hi < lo:
        raise DomainError("theta grid must have lo <= hi")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise DomainError(f"theta grid span must be finite, got {text!r}")
    # A span that is a whole number of steps up to rounding keeps its last
    # point; a real fraction of a step is dropped, so no point passes hi.
    count = math.floor(steps + 1e-9 * max(1.0, steps))
    if count + 1 > _MAX_GRID_POINTS:
        raise DomainError(f"theta grid {text!r} has more than {_MAX_GRID_POINTS:,} points")
    return [lo + k * step for k in range(count + 1)]


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise DomainError(
                        f"{path}:{lineno}: expected key=value, got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    return values


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, ns: argparse.Namespace):
        self._flags = vars(ns)
        config_path = self._flags.get("config")
        self._config = _load_config_file(config_path) if config_path else {}

    def get(self, name: str, default: str | None = None) -> str | None:
        flag = self._flags.get(name)
        if flag is not None:
            return flag
        if name in self._config:
            return self._config[name]
        return default

    def require(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise DomainError(f"missing required option --{name.replace('_', '-')}")
        return value


# ---------------------------------------------------------------------------
# output


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, Enum):
        return value.value
    return value


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("result is not finite; JSON has no encoding for it")


def _emit_rows(command: str, rows: list[tuple], fmt: str, out: str | None) -> None:
    columns = _COLUMNS[command]
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        if rows:
            # Every row of a table has the cell types of the first one.
            template = ",".join(
                "{:.9g}" if isinstance(v, float)
                else "{.value}" if isinstance(v, Enum)
                else "{}"
                for v in rows[0]
            )
            buf.writelines(starmap((template + "\n").format, rows))
        text = buf.getvalue()
    else:
        payload = [
            {col: _json_value(v) for col, v in zip(columns, row)} for row in rows
        ]
        single = command == "signaling" and len(payload) == 1
        text = _json_text(payload[0] if single else payload)
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _params_from(opts: _Options, default_rbar: str | None = None) -> ModelParams:
    sigma = _parse_float(opts.require("sigma"), "sigma")
    raw_rbar = opts.get("rbar", default_rbar)
    if raw_rbar is None:
        raise DomainError("missing required option --rbar")
    return validate_params(sigma, _parse_float(raw_rbar, "rbar"))


def _format_from(opts: _Options, default: str = "csv") -> str:
    fmt = opts.get("format", default)
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    return fmt


def _cmd_continuation(opts: _Options) -> int:
    params = _params_from(opts, default_rbar="0.2")
    r = _parse_float(opts.require("r"), "r")
    solver = opts.get("solver", "closed-form")
    if solver == "closed-form":
        eq = closed_form_thresholds(params, r)
    elif solver == "iterated":
        tol = _parse_float(opts.get("tol", "1e-9"), "tol")
        eq, _ = solve_iterated_dominance(params, r, tol)
    else:
        raise DomainError(f"unknown solver {solver!r}")
    fmt = _format_from(opts)
    out = opts.get("out")
    row = (params.sigma, r, eq.x_cutoff, eq.theta_cutoff)
    if fmt == "json":
        payload = {
            "sigma": _json_value(params.sigma),
            "r": _json_value(r),
            "x_cutoff": _json_value(eq.x_cutoff),
            "theta_cutoff": _json_value(eq.theta_cutoff),
            "solver": solver,
        }
        _write_text(_json_text(payload), out)
    else:
        _emit_rows("continuation", [row], "csv", out)
    return 0


def _cmd_signaling(opts: _Options) -> int:
    params = _params_from(opts)
    r_prime = _parse_float(opts.require("rprime"), "rprime")
    eq = solve_signaling(params, r_prime)
    row = (
        params.sigma,
        params.r_lower,
        eq.r_prime,
        eq.r_tilde,
        eq.theta_lower,
        eq.theta_upper,
        eq.x_prime,
        eq.theta_no_attack,
    )
    _emit_rows("signaling", [row], _format_from(opts), opts.get("out"))
    return 0


# Slices of the theta grid bound each numpy temporary to 128 KiB; whole-grid
# temporaries of a dense sweep fragment the heap and raise its peak memory.
_SWEEP_SLICE = 16_384


def _sweep_rows(
    params: ModelParams, r_primes: list[float], thetas: list[float]
) -> list[tuple]:
    """welfare-sweep rows: one block per r_prime, evaluated a grid slice at a time."""
    rows = []
    for r_prime in r_primes:
        eq = solve_signaling(params, r_prime)
        for start in range(0, len(thetas), _SWEEP_SLICE):
            part = thetas[start : start + _SWEEP_SLICE]
            grid = np.array(part)
            rows += zip(
                repeat(params.sigma),
                repeat(params.r_lower),
                repeat(r_prime),
                part,
                classify_region(eq, grid),
                aggregate_attack_no_intervention(params, eq, grid).tolist(),
                ex_post_welfare(params, eq, grid).tolist(),
            )
    return rows


def _cmd_welfare_sweep(opts: _Options) -> int:
    params = _params_from(opts)
    r_primes = _parse_float_list(opts.require("rprime"), "rprime")
    rows = _sweep_rows(params, r_primes, _parse_theta_spec(opts.require("theta")))
    _emit_rows("welfare-sweep", rows, _format_from(opts), opts.get("out"))
    return 0


def _cmd_compare(opts: _Options) -> int:
    params = _params_from(opts)
    r_low = _parse_float(opts.require("rprime"), "rprime")
    r_high = _parse_float(opts.require("rprime_hi"), "rprime-hi")
    thetas = _parse_theta_spec(opts.require("theta"))
    tol = _parse_float(opts.get("tol", "1e-9"), "tol")
    comparison = compare_welfare(params, r_low, r_high, thetas, tol)
    rows = list(
        zip(
            repeat(params.sigma),
            repeat(params.r_lower),
            repeat(r_low),
            comparison.theta_grid,
            comparison.region_low,
            comparison.attack_low,
            comparison.u_low,
            repeat(r_high),
            comparison.u_high,
            comparison.verdicts,
        )
    )
    _emit_rows("compare", rows, _format_from(opts), opts.get("out"))
    return 0


def _cmd_simulate(opts: _Options) -> int:
    params = _params_from(opts)
    thetas = _parse_theta_spec(opts.require("theta"))
    config = SimConfig(
        n_agents=_parse_int(opts.get("agents", "10000"), "agents"),
        n_reps=_parse_int(opts.get("reps", "20"), "reps"),
        master_seed=_parse_int(opts.get("seed", "42"), "seed"),
    )
    raw_rprime = opts.get("rprime")
    raw_r = opts.get("r")
    if raw_rprime is not None and raw_r is not None:
        raise DomainError("pass either --r (continuation) or --rprime (signaling)")

    if raw_rprime is not None:
        mode = "signaling"
        eq = solve_signaling(params, _parse_float(raw_rprime, "rprime"))
        policy, cutoff = eq.r_prime, eq.x_prime
        outcomes = simulate_signaling(params, eq, thetas, config)
    elif raw_r is not None:
        mode = "continuation"
        policy = _parse_float(raw_r, "r")
        raw_cutoff = opts.get("x_cutoff")
        if raw_cutoff is not None:
            cutoff = _parse_float(raw_cutoff, "x-cutoff")
        else:
            cutoff = closed_form_thresholds(params, policy).x_cutoff
        outcomes = simulate_continuation(params, policy, thetas, cutoff, config)
    else:
        raise DomainError("pass either --r (continuation) or --rprime (signaling)")
    rows = [
        (
            params.sigma,
            params.r_lower,
            mode,
            policy,
            cutoff,
            theta,
            config.n_agents,
            config.n_reps,
            config.master_seed,
            outcome.alpha_mean,
            outcome.alpha_halfwidth,
            outcome.fall_frequency,
            outcome.welfare_mean,
        )
        for theta, outcome in zip(thetas, outcomes)
    ]
    _emit_rows("simulate", rows, _format_from(opts), opts.get("out"))
    return 0


def _cmd_verify(opts: _Options) -> int:
    sigmas = _parse_float_list(
        opts.get("sigma", ",".join(str(s) for s in DEFAULT_SIGMA_GRID)), "sigma"
    )
    rbars = _parse_float_list(
        opts.get("rbar", ",".join(str(r) for r in DEFAULT_RBAR_GRID)), "rbar"
    )
    grid = [validate_params(s, rb) for s in sigmas for rb in rbars]
    report = run_verify(grid)
    fmt = _format_from(opts, default="json")
    out = opts.get("out")
    if fmt == "csv":
        rows = [
            (res.name, str(res.passed).lower(), res.points, res.max_error, res.tolerance)
            for res in report.results
        ]
        _emit_rows("verify", rows, "csv", out)
    else:
        _write_text(_json_text(report.to_dict()), out)
    if report.n_checks == 0:
        print("verify: 0 checks", file=sys.stderr)
        return 2
    if report.n_failed:
        names = ", ".join(report.failed_names)
        print(
            f"verify: {report.n_failed} of {report.n_checks} checks failed: {names}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "sigma": dict(help="signal noise half-width"),
        "rbar": dict(help="baseline policy level in (0,1)"),
        "r": dict(help="policy level of the fixed-policy game"),
        "rprime": dict(help="intervention level(s), comma separated where allowed"),
        "rprime-hi": dict(dest="rprime_hi", help="higher intervention level"),
        "theta": dict(help="fundamental grid, lo:hi:step or a single value"),
        "x-cutoff": dict(dest="x_cutoff", help="override the attack cutoff"),
        "solver": dict(choices=["closed-form", "iterated"], help="threshold solver"),
        "tol": dict(help="tolerance"),
        "agents": dict(help="agents per replication"),
        "reps": dict(help="number of replications"),
        "seed": dict(help="64-bit master seed"),
        "format": dict(choices=["csv", "json"], help="output format"),
        "out": dict(help="output file (stdout if omitted)"),
        "config": dict(help="flat key=value defaults file; flags win"),
    }
    for name in names:
        parser.add_argument(f"--{name}", **spec[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimelab",
        description="Equilibrium laboratory for the regime-change signalling game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("continuation", help="fixed-policy equilibrium thresholds")
    _add_common(p, "sigma", "rbar", "r", "solver", "tol", "format", "out", "config")
    p.set_defaults(handler=_cmd_continuation)

    p = sub.add_parser("signaling", help="signalling-equilibrium threshold bundle")
    _add_common(p, "sigma", "rbar", "rprime", "format", "out", "config")
    p.set_defaults(handler=_cmd_signaling)

    p = sub.add_parser("welfare-sweep", help="region/attack/welfare over a theta grid")
    _add_common(p, "sigma", "rbar", "rprime", "theta", "format", "out", "config")
    p.set_defaults(handler=_cmd_welfare_sweep)

    p = sub.add_parser("compare", help="welfare under two intervention levels")
    _add_common(
        p, "sigma", "rbar", "rprime", "rprime-hi", "theta", "tol", "format", "out", "config"
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("simulate", help="finite-agent Monte Carlo")
    _add_common(
        p,
        "sigma",
        "rbar",
        "r",
        "rprime",
        "x-cutoff",
        "theta",
        "agents",
        "reps",
        "seed",
        "format",
        "out",
        "config",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-checking suite")
    _add_common(p, "sigma", "rbar", "format", "out", "config")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.handler(_Options(ns))
    except RegimeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
