"""Command-line front end.

Six subcommands map onto the solver modules:

    continuation   fixed-policy thresholds (closed form or iterated dominance)
    signaling      threshold bundle of one signalling equilibrium
    welfare-sweep  region / attack / welfare over a theta grid
    compare        welfare under two intervention levels, with verdicts
    simulate       finite-agent Monte Carlo at given fundamentals
    verify         cross-checking suite over a parameter grid

Outputs are CSV (default) or JSON, to stdout or --out. Numbers carry 9
significant digits and both formats start from their .9g text. CSV writes
that text; JSON writes it too where it has a decimal point and no exponent,
and elsewhere the shortest float repr of the rounded value, so 1e9 is
1e+09 in CSV and 1000000000.0 in JSON.
CSV uses a header row; both are UTF-8 with LF line endings and JSON is laid
out as json.dumps(indent=2) lays it out. A verify max_error that is not
finite is null in JSON and an empty CSV cell. Tables are written in blocks of
at most 16,384 rows as they are formatted. --out is opened at the first write;
an error after it removes the partial file if it is a regular one.
Theta grids are written lo:hi:step, whose points never pass hi (hi itself
is included when the span is a whole number of steps), or as a single
number. Every number must be finite. A flat key=value file passed via
--config supplies defaults; explicit flags win. Exit codes: 0 success,
1 verification failures, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from itertools import repeat, starmap
from operator import attrgetter

from .continuation import closed_form_thresholds, require_tolerance, solve_iterated_dominance
from .errors import DomainError, RegimeLabError
from .model import ModelParams
# ex_post_welfare is not called here: perfbench's test_tracer_restores_every_binding
# reads cli.ex_post_welfare. Drop it when that probe moves to statics.
from .signaling import ex_post_welfare, solve_signaling  # noqa: F401
from .simulate import SimConfig, simulate_continuation, simulate_signaling
from .statics import compare_slices, sweep
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
                key = key.strip()
                if key.replace("_", "-") not in _OPTIONS:
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
                if key == "config":
                    raise DomainError(f"{path}:{lineno}: a config file cannot name another one")
                values[key.replace("-", "_")] = value.strip()
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


_NOT_FINITE = "result is not finite; JSON has no encoding for it"


def _json_number(text: str) -> str:
    """The shortest float repr of a .9g text that has no point or has an exponent.

    inf, -inf and nan have no point, so every non-finite cell ends up here.
    """
    value = float(text)
    if not math.isfinite(value):
        raise DomainError(_NOT_FINITE)
    return repr(value)


def _json_cells(cells) -> list[str]:
    """JSON text of each cell of one column, whose cells share the first one's type.

    A float is rounded to 9 significant digits and written as the shortest
    repr of that rounding, which is what json.dumps prints for it. A .9g
    text in fixed notation with a point already is that repr: it has at most
    9 digits, no other decimal that short lies within an ulp of it, and repr
    keeps fixed notation for exponents in [-4, 16), which hold .9g's [-4, 9).
    """
    first = cells[0]
    if isinstance(first, float):
        return [
            _json_number(text) if "." not in text or "e" in text else text
            for text in map("{:.9g}".format, cells)
        ]
    if isinstance(first, str):
        # A str column repeats a few values, such as region names: dump each once.
        lookup = {cell: json.dumps(cell) for cell in set(cells)}
        return list(map(lookup.__getitem__, cells))
    return list(map(json.dumps, cells))


def _csv_field(cell) -> str:
    """The CSV format field of a cell: 9 significant digits for a float, else str."""
    return "{:.9g}" if isinstance(cell, float) else "{}"


def _cells(array) -> list:
    """A float array's cells, or the values (read from _value_) of an array of enum members."""
    return list(map(attrgetter("_value_"), array)) if array.dtype == object else array.tolist()


def _template_fields(columns: tuple[str, ...], constants: dict, encode, slots) -> list[str]:
    """Each column's text in a row template: its constant encoded once, else the next slot."""
    baked = {col: encode(v).replace("{", "{{").replace("}", "}}") for col, v in constants.items()}
    slots = iter(slots)
    return [baked[col] if col in baked else next(slots) for col in columns]


def _json_text(columns: tuple[str, ...], rows: list[tuple], constants: dict, single: bool) -> str:
    """The objects of rows in a JSON array, joined by commas, or the one row's object when single.

    The layout is json.dumps(indent=2)'s, from one template that the rows fill.
    """
    indent = "" if single else "  "
    fields = _template_fields(columns, constants, lambda v: _json_cells([v])[0], repeat("{}"))
    template = f"{indent}{{{{\n" + ",\n".join(
        f"{indent}  {json.dumps(col)}: {field}" for col, field in zip(columns, fields)
    ) + f"\n{indent}}}}}"
    objects = starmap(template.format, zip(*map(_json_cells, zip(*rows))))
    return next(objects) + "\n" if single else ",\n".join(objects)


def _emit_rows(command: str, rows: list[tuple], fmt: str, out, lead: str, **constants) -> None:
    """Format one block of a table and write it, after lead, to the open stream out.

    constants are the cells every row of the block shares, by column name,
    encoded once by fmt's cell rule and baked into the block's template.
    Each row holds the other cells in _COLUMNS order, with the cell types
    of the first row. Nothing is written unless every cell encodes.
    """
    columns = _COLUMNS[command]
    if fmt == "csv":
        fields = _template_fields(
            columns, constants, lambda v: _csv_field(v).format(v), map(_csv_field, rows[0])
        )
        body = "".join(starmap((",".join(fields) + "\n").format, rows))
    else:
        body = _json_text(columns, rows, constants, False)
    _write_text(lead + body, out)


def _write_text(text: str, out) -> None:
    out.write(text)


class _Output:
    """stdout, or the file at path: opened (so truncated) at the first write, and
    removed if an error follows that write and it is a regular file, not a device or FIFO."""

    def __init__(self, path: str | None):
        self.path, self.fh = path, sys.stdout if path is None else None

    def write(self, text: str) -> None:
        if self.fh is None:
            try:
                self.fh = open(self.path, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise DomainError(f"cannot write {self.path}: {exc.strerror}")
        self.fh.write(text)

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, kind, error, tb) -> None:
        if self.path is not None and self.fh is not None:
            if kind is not None and stat.S_ISREG(os.fstat(self.fh.fileno()).st_mode):
                os.remove(self.path)
            self.fh.close()


def _write_table(command: str, fmt: str, path: str | None, blocks, **constants) -> None:
    """Write a table to path (stdout if None), each block as it arrives.

    blocks yields (rows, own): non-empty rows for _emit_rows, and the
    constants of that block alone, baked in beside the table's constants.
    """
    lead = ",".join(_COLUMNS[command]) + "\n" if fmt == "csv" else "[\n"
    with _Output(path) as out:
        for rows, own in blocks:
            _emit_rows(command, rows, fmt, out, lead, **constants, **own)
            lead = "" if fmt == "csv" else ",\n"
        if fmt == "json":
            _write_text("[]\n" if lead == "[\n" else "\n]\n", out)
        elif lead:  # the header of a table without rows
            _write_text(lead, out)


def _write_record(command: str, row: tuple, fmt: str, path: str | None, **json_only) -> None:
    """Write a one-row table: its CSV header and row, or its one JSON object."""
    if fmt == "csv":
        _write_table(command, "csv", path, [([row], {})])
        return
    text = _json_text((*_COLUMNS[command], *json_only), [row], json_only, True)
    with _Output(path) as out:
        _write_text(text, out)


# ---------------------------------------------------------------------------
# subcommands


def _params_from(opts: _Options, default_rbar: str | None = None) -> ModelParams:
    sigma = _parse_float(opts.require("sigma"), "sigma")
    raw_rbar = opts.get("rbar", default_rbar)
    if raw_rbar is None:
        raise DomainError("missing required option --rbar")
    return ModelParams(sigma, _parse_float(raw_rbar, "rbar"))


def _format_from(opts: _Options, default: str = "csv") -> str:
    fmt = opts.get("format", default)
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    return fmt


def _cmd_continuation(opts: _Options) -> int:
    params = _params_from(opts, default_rbar="0.2")
    r = _parse_float(opts.require("r"), "r")
    solver = opts.get("solver", "closed-form")
    # Both solvers take the same --tol, so the closed form refuses one the
    # iterated solver would refuse, although it reads no tolerance itself.
    tol = _parse_float(opts.get("tol", "1e-9"), "tol")
    require_tolerance(tol)
    if solver == "closed-form":
        eq = closed_form_thresholds(params, r)
    elif solver == "iterated":
        eq, _ = solve_iterated_dominance(params, r, tol)
    else:
        raise DomainError(f"unknown solver {solver!r}")
    row = (params.sigma, r, eq.x_cutoff, eq.theta_cutoff)
    _write_record("continuation", row, _format_from(opts), opts.get("out"), solver=solver)
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
    _write_record("signaling", row, _format_from(opts), opts.get("out"))
    return 0


def _cmd_welfare_sweep(opts: _Options) -> int:
    params = _params_from(opts)
    r_primes = _parse_float_list(opts.require("rprime"), "rprime")
    thetas = _parse_theta_spec(opts.require("theta"))
    blocks = (
        (list(zip(part, _cells(regions), attacks, welfares)), {"rprime": r_prime})
        for r_prime, part, regions, attacks, welfares in sweep(params, r_primes, thetas)
    )
    _write_table(
        "welfare-sweep", _format_from(opts), opts.get("out"), blocks,
        sigma=params.sigma, rbar=params.r_lower,
    )
    return 0


def _cmd_compare(opts: _Options) -> int:
    params = _params_from(opts)
    r_low = _parse_float(opts.require("rprime"), "rprime")
    r_high = _parse_float(opts.require("rprime_hi"), "rprime-hi")
    thetas = _parse_theta_spec(opts.require("theta"))
    tol = _parse_float(opts.get("tol", "1e-9"), "tol")
    blocks = (
        (list(zip(*map(_cells, cols))), {})
        for cols in compare_slices(params, r_low, r_high, thetas, tol)
    )
    _write_table(
        "compare", _format_from(opts), opts.get("out"), blocks,
        sigma=params.sigma, rbar=params.r_lower, rprime=r_low, rprime_hi=r_high,
    )
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
    raw_cutoff = opts.get("x_cutoff")
    if raw_rprime is not None and raw_cutoff is not None:
        raise DomainError("--x-cutoff applies only with --r; signaling mode plays x_prime")

    if raw_rprime is not None:
        mode = "signaling"
        eq = solve_signaling(params, _parse_float(raw_rprime, "rprime"))
        policy, cutoff = eq.r_prime, eq.x_prime
        outcome = simulate_signaling(params, eq, thetas, config)
    elif raw_r is not None:
        mode = "continuation"
        policy = _parse_float(raw_r, "r")
        if raw_cutoff is not None:
            cutoff = _parse_float(raw_cutoff, "x-cutoff")
        else:
            cutoff = closed_form_thresholds(params, policy).x_cutoff
        outcome = simulate_continuation(params, policy, thetas, cutoff, config)
    else:
        raise DomainError("pass either --r (continuation) or --rprime (signaling)")
    rows = list(
        zip(
            thetas,
            outcome.alpha_mean.tolist(),
            outcome.alpha_halfwidth.tolist(),
            outcome.fall_frequency.tolist(),
            outcome.welfare_mean.tolist(),
        )
    )
    _write_table(
        "simulate", _format_from(opts), opts.get("out"), [(rows, {})],
        sigma=params.sigma, rbar=params.r_lower, mode=mode, r=policy, x_cutoff=cutoff,
        n_agents=config.n_agents, n_reps=config.n_reps, seed=config.master_seed,
    )
    return 0


def _cmd_verify(opts: _Options) -> int:
    sigmas = _parse_float_list(
        opts.get("sigma", ",".join(str(s) for s in DEFAULT_SIGMA_GRID)), "sigma"
    )
    rbars = _parse_float_list(
        opts.get("rbar", ",".join(str(r) for r in DEFAULT_RBAR_GRID)), "rbar"
    )
    if not sigmas or not rbars:
        raise DomainError("verify needs at least one sigma and one rbar")
    grid = [ModelParams(s, rb) for s in sigmas for rb in rbars]
    report = run_verify(grid)
    fmt = _format_from(opts, default="json")
    if fmt == "csv":
        rows = [
            (res.name, str(res.passed).lower(), res.points,
             "" if res.max_error is None else f"{res.max_error:.9g}", res.tolerance)
            for res in report.results
        ]
        _write_table("verify", "csv", opts.get("out"), [(rows, {})] if rows else [])
    else:
        try:
            text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise DomainError(_NOT_FINITE)
        with _Output(opts.get("out")) as out:
            _write_text(text, out)
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


# The long options of every subcommand; a --config key must name one of them.
_OPTIONS = {
    "sigma": dict(help="signal noise half-width"),
    "rbar": dict(help="baseline policy level in (0,1)"),
    "r": dict(help="policy level of the fixed-policy game"),
    "rprime": dict(help="intervention level(s), comma separated where allowed"),
    "rprime-hi": dict(dest="rprime_hi", help="higher intervention level"),
    "theta": dict(help="fundamental grid, lo:hi:step or a single value"),
    "x-cutoff": dict(dest="x_cutoff", help="override the attack cutoff (with --r)"),
    "solver": dict(choices=["closed-form", "iterated"], help="threshold solver"),
    "tol": dict(help="tolerance"),
    "agents": dict(help="agents per replication"),
    "reps": dict(help="number of replications"),
    "seed": dict(help="64-bit master seed"),
    "format": dict(choices=["csv", "json"], help="output format"),
    "out": dict(help="output file (stdout if omitted)"),
    "config": dict(help="flat key=value defaults file; flags win"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


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
