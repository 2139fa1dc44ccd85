"""Command-line front end.

Six subcommands map onto the solver modules:

    continuation   fixed-policy thresholds (closed form or iterated dominance)
    signaling      threshold bundle of one signalling equilibrium
    welfare-sweep  region / attack / welfare over a theta grid
    compare        welfare under two intervention levels, with verdicts
    simulate       finite-agent Monte Carlo at given fundamentals
    verify         cross-checking suite over a parameter grid

Outputs are CSV (default) or JSON, to stdout or --out. Numbers carry 9
significant digits. CSV writes a float's .9g text; JSON writes the shortest
float repr of the rounded value, which is the {:.9} text (.9g with a digit
after any point) where that has no exponent, so 1e9 is 1e+09 in CSV and
1000000000.0 in JSON. CSV uses a header row; both are UTF-8 with LF line
endings and JSON is laid out as json.dumps(indent=2) lays it out. A verify
max_error that is not finite is null in JSON and an empty CSV cell. Tables
are written in blocks of at most 1,024 rows as they are formatted: a CSV
block by one % call over a row template (%.9g or %s per varying column)
and one flat tuple of its cells, a JSON block a column at a time, one
format call per float column and one join per block. --out is opened at
the first write; an error after it removes the partial file if it is a
regular one. A write that fails is one "cannot write" error line and exit
2, as is a table for stdout when fd 1 was closed at start; with fd 2 closed
at start, error lines are dropped, never written to stdout. A closed stdout
pipe ends the process silently. Theta grids are written lo:hi:step,
whose points never pass hi (hi itself is included when the span is a
whole number of steps), or as a single number. Every number,
read or written, must be finite. A flat key=value file passed via
--config supplies defaults, each value checked against its option's choices
as the file is read; explicit flags win. Exit codes: 0 success, 1
verification failures, 2 usage or domain errors, each one "error:" line,
argparse's included. No command makes a BLAS call, so the CLI loads numpy
with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set, and leaves the
environment as it found it. No command hashes anything either, so main(),
the console-script process, marks OpenSSL's _hashlib unimportable where
CPython's builtin digest modules are present: numpy.random's secrets and
hmac then load hashlib over those builtins, and libcrypto is never mapped.
Once stdout and stderr are flushed, main() ends the process by os._exit,
which skips interpreter teardown (about 15 ms of finalization and C
destructors a command). run() leaves the import system as it found it,
and returns its exit code to its caller.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import signal
import stat
import sys
from operator import attrgetter

# OpenBLAS reads OPENBLAS_NUM_THREADS once, as numpy loads it, and otherwise
# starts a worker per extra core that spin-waits for work before it sleeps.
# The variable is removed again at once, so run() callers and child
# processes see the environment they had.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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


# Ten million points (an 80 MB float array, 140 times the densest benchmark
# grid) is past any table; a larger count is a mistyped step, refused unbuilt.
_MAX_GRID_POINTS = 10_000_000


def _parse_theta_spec(text: str) -> np.ndarray:
    """Parse 'lo:hi:step' (endpoints inclusive, count snapped) or one number into a float array."""
    if ":" not in text:
        return np.array([_parse_float(text, "theta")])
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
    # Built in place, so the grid is held once: for k below 2**53, float(k)
    # is exact and each point has the bits of the scalar lo + k * step.
    grid = np.arange(count + 1, dtype=float)
    grid *= step
    grid += lo
    return grid


def _load_config_file(path: str) -> dict[str, str]:
    """The key=value lines of path by option dest, each value within its option's choices."""
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
                key, value = key.strip(), value.strip()
                option = _OPTIONS.get(key.replace("_", "-"))
                if option is None:
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
                if key == "config":
                    raise DomainError(f"{path}:{lineno}: a config file cannot name another one")
                choices = option.get("choices")
                if choices is not None and value not in choices:
                    raise DomainError(
                        f"{path}:{lineno}: {key} must be {' or '.join(choices)}, got {value!r}"
                    )
                values[key.replace("-", "_")] = value
    except (OSError, UnicodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    return values


def _required(opts: dict, name: str) -> str:
    """The value of option name (its dest), which must be given by a flag or the config file."""
    if name not in opts:
        raise DomainError(f"missing required option --{name.replace('_', '-')}")
    return opts[name]


# ---------------------------------------------------------------------------
# output


_NOT_FINITE = "result is not finite; CSV and JSON carry finite numbers only"


def _cells(column) -> list:
    """A column's cells: a float array's floats, an enum array's member values, else the column."""
    if not isinstance(column, np.ndarray):
        return column
    return list(map(attrgetter("_value_"), column)) if column.dtype == object else column.tolist()


def _looked_up(cells, encode) -> list[str]:
    """encode of each cell, called once per distinct one: a region or verdict column has a few."""
    lookup = {cell: encode(cell) for cell in set(cells)}
    return list(map(lookup.__getitem__, cells))


def _csv_slot(column) -> str:
    """The % conversion of a CSV column: %.9g for floats, which must all be finite; else %s.

    %.9g gives the text of format(v, ".9g"), as both are CPython's 'g'
    conversion at 9 significant digits, and %s gives str(v). Floats are
    checked on the column as it comes, for a block a float64 array.
    """
    if not isinstance(column[0], float):
        return "%s"
    if not np.isfinite(column).all():
        raise DomainError(_NOT_FINITE)
    return "%.9g"


def _csv_cells(cells) -> list[str]:
    """CSV text of each cell of one column: a float's 9 significant digits, else its str."""
    slot = _csv_slot(cells)
    return [slot % (cell,) for cell in cells]


def _json_cells(cells) -> list[str]:
    """JSON text of each cell of one column, whose cells share the first one's type.

    A float is rounded to 9 significant digits and written as the shortest
    repr of that rounding, which is what json.dumps prints for it. The
    column is formatted by one "{:.9}" call: .9g with a digit after any
    point (3.0, not 3), which switches to an exponent from exponent 8 up. A
    text without an exponent is that repr: it has at most 9 digits, no other
    decimal that short lies within an ulp of it, and repr keeps fixed
    notation for exponents in [-4, 16). A text with one is fixed up through
    float and repr; an n (inf, nan) is refused.
    """
    if not isinstance(cells[0], float):
        return _looked_up(cells, json.dumps)
    text = ("{:.9}\n" * len(cells)).format(*cells)
    if "n" in text:
        raise DomainError(_NOT_FINITE)
    if "e" in text:
        return [repr(float(cell)) if "e" in cell else cell for cell in text.split()]
    return text.split()


def _layout(names, columns, constants: dict, fmt: str, lead: str, indent: str = "  ") -> str:
    """lead, then the text of a block of rows: CSV lines, or JSON objects joined by commas.

    names are the table's columns; constants maps some of them to the cell
    every row shares, which is encoded once into the literal text between
    cells, and columns holds the others in names order, all of one length.
    CSV is one % call over a row template, the literal text with every %
    doubled and a _csv_slot conversion per column, repeated once per row;
    its arguments are the cells, row by row in one flat tuple. JSON follows
    json.dumps(indent=2), objects indented by indent, and is joined from
    the cell texts. Every cell is checked or encoded before any text is
    laid out.
    """
    n = len(columns[0])
    if fmt == "csv":
        row, flat, m = [], [None] * (n * len(columns)), 0
        for name in names:
            if name in constants:
                row.append(_csv_cells([constants[name]])[0].replace("%", "%%"))
            else:
                row.append(_csv_slot(columns[m]))
                flat[m :: len(columns)] = _cells(columns[m])
                m += 1
        flat = tuple(flat)  # the list is freed before the text is made
        return lead + (",".join(row) + "\n") * n % flat
    texts = [_json_cells(_cells(column)) for column in columns]
    head, sep, tail, between = f"{indent}{{\n", ",\n", f"\n{indent}}}", ",\n"
    # A row is literal, cell, literal, cell, ..., then literal: pieces holds
    # the literals before the cells, with a None slot after each.
    pieces, literal = [], head
    for i, name in enumerate(names):
        literal += (sep if i else "") + f"{indent}  {json.dumps(name)}: "
        if name in constants:
            literal += _json_cells([constants[name]])[0]
        else:
            pieces += (literal, None)
            literal = ""
    first = pieces[0]
    pieces[0] = literal + tail + between + first
    parts = pieces * n
    parts[0] = lead + first
    for m, cells in enumerate(texts):
        parts[2 * m + 1 :: len(pieces)] = cells
    parts.append(literal + tail)
    return "".join(parts)


def _emit_rows(command: str, *columns, fmt: str, out, lead: str, **constants) -> None:
    """Format one block of a table and write it, after lead, to the open stream out.

    columns are the block's varying columns in _COLUMNS order, all as long
    as the block; constants are the cells every row of the block shares, by
    column name. Nothing is written unless every cell encodes.
    """
    _write_text(_layout(_COLUMNS[command], columns, constants, fmt, lead), out)


def _write_text(text: str, out) -> None:
    out.write(text)


class _Output:
    """stdout, or the file at path: opened (so truncated) at the first write, and
    removed if an error follows that write and it is a regular file, not a device or FIFO.

    An OSError in writing, or in the flush or close that ends the output,
    is raised as a DomainError naming the target. stdout is flushed only
    when it is the target.
    """

    def __init__(self, path: str | None):
        self.path, self.fh = path, sys.stdout if path is None else None
        self.name = "stdout" if path is None else path

    def write(self, text: str) -> None:
        try:
            if self.fh is None:
                if self.path is None:  # fd 1 was closed when the process started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                self.fh = open(self.path, "w", encoding="utf-8", newline="")
            self.fh.write(text)
        except OSError as exc:
            raise _cannot_write(self.name, exc)

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, kind, error, tb) -> None:
        if self.fh is None:
            return
        regular = self.path is not None and stat.S_ISREG(os.fstat(self.fh.fileno()).st_mode)
        failure = None
        try:
            # Text is buffered, so its last part is written, or fails, here.
            if self.path is None:
                self.fh.flush()
            else:
                self.fh.close()
        except OSError as exc:
            failure = _cannot_write(self.name, exc)
        if regular and (kind is not None or failure is not None):
            os.remove(self.path)
        if kind is None and failure is not None:
            raise failure


def _cannot_write(name: str, exc: OSError) -> DomainError:
    return DomainError(f"cannot write {name}: {exc.strerror or exc}")


def _write_table(command: str, fmt: str, path: str | None, blocks, **constants) -> None:
    """Write a table to path (stdout if None), each block as it arrives.

    blocks yields (columns, own): the varying columns of a non-empty block
    for _emit_rows, and the constants of that block alone, baked in beside
    the table's constants.
    """
    lead = ",".join(_COLUMNS[command]) + "\n" if fmt == "csv" else "[\n"
    with _Output(path) as out:
        for columns, own in blocks:
            _emit_rows(command, *columns, fmt=fmt, out=out, lead=lead, **constants, **own)
            lead = "" if fmt == "csv" else ",\n"
        if fmt == "json":
            _write_text("[]\n" if lead == "[\n" else "\n]\n", out)
        elif lead:  # the header of a table without rows
            _write_text(lead, out)


def _write_record(command: str, row: tuple, fmt: str, path: str | None, **json_only) -> None:
    """Write a one-row table: its CSV header and row, or its one JSON object."""
    columns = [[cell] for cell in row]
    if fmt == "csv":
        _write_table(command, "csv", path, [(columns, {})])
        return
    text = _layout((*_COLUMNS[command], *json_only), columns, json_only, "json", "", "") + "\n"
    with _Output(path) as out:
        _write_text(text, out)


# ---------------------------------------------------------------------------
# subcommands


def _params_from(opts: dict) -> ModelParams:
    return ModelParams(
        _parse_float(_required(opts, "sigma"), "sigma"),
        _parse_float(_required(opts, "rbar"), "rbar"),
    )


def _cmd_continuation(opts: dict) -> int:
    params = _params_from({"rbar": "0.2", **opts})
    r = _parse_float(_required(opts, "r"), "r")
    solver = opts.get("solver", "closed-form")
    # Both solvers take the same --tol, so the closed form refuses one the
    # iterated solver would refuse, although it reads no tolerance itself.
    tol = _parse_float(opts.get("tol", "1e-9"), "tol")
    require_tolerance(tol)
    if solver == "iterated":
        eq, _ = solve_iterated_dominance(params, r, tol)
    else:
        eq = closed_form_thresholds(params, r)
    row = (params.sigma, r, eq.x_cutoff, eq.theta_cutoff)
    _write_record("continuation", row, opts.get("format", "csv"), opts.get("out"), solver=solver)
    return 0


def _cmd_signaling(opts: dict) -> int:
    params = _params_from(opts)
    r_prime = _parse_float(_required(opts, "rprime"), "rprime")
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
    _write_record("signaling", row, opts.get("format", "csv"), opts.get("out"))
    return 0


def _cmd_welfare_sweep(opts: dict) -> int:
    params = _params_from(opts)
    r_primes = _parse_float_list(_required(opts, "rprime"), "rprime")
    thetas = _parse_theta_spec(_required(opts, "theta"))
    blocks = ((cols, {"rprime": r_prime}) for r_prime, *cols in sweep(params, r_primes, thetas))
    _write_table(
        "welfare-sweep", opts.get("format", "csv"), opts.get("out"), blocks,
        sigma=params.sigma, rbar=params.r_lower,
    )
    return 0


def _cmd_compare(opts: dict) -> int:
    params = _params_from(opts)
    r_low = _parse_float(_required(opts, "rprime"), "rprime")
    r_high = _parse_float(_required(opts, "rprime_hi"), "rprime-hi")
    thetas = _parse_theta_spec(_required(opts, "theta"))
    tol = _parse_float(opts.get("tol", "1e-9"), "tol")
    blocks = ((cols, {}) for cols in compare_slices(params, r_low, r_high, thetas, tol))
    _write_table(
        "compare", opts.get("format", "csv"), opts.get("out"), blocks,
        sigma=params.sigma, rbar=params.r_lower, rprime=r_low, rprime_hi=r_high,
    )
    return 0


def _cmd_simulate(opts: dict) -> int:
    params = _params_from(opts)
    thetas = _parse_theta_spec(_required(opts, "theta"))
    config = SimConfig(
        n_agents=_parse_int(opts.get("agents", "10000"), "agents"),
        n_reps=_parse_int(opts.get("reps", "20"), "reps"),
        master_seed=_parse_int(opts.get("seed", "42"), "seed"),
    )
    raw_rprime, raw_r, raw_cutoff = opts.get("rprime"), opts.get("r"), opts.get("x_cutoff")
    if (raw_rprime is None) == (raw_r is None):
        raise DomainError("pass either --r (continuation) or --rprime (signaling)")
    if raw_rprime is not None and raw_cutoff is not None:
        raise DomainError("--x-cutoff applies only with --r; signaling mode plays x_prime")
    if raw_rprime is not None:
        mode = "signaling"
        eq = solve_signaling(params, _parse_float(raw_rprime, "rprime"))
        policy, cutoff = eq.r_prime, eq.x_prime
        outcome = simulate_signaling(params, eq, thetas, config)
    else:
        mode = "continuation"
        policy = _parse_float(raw_r, "r")
        if raw_cutoff is not None:
            cutoff = _parse_float(raw_cutoff, "x-cutoff")
        else:
            cutoff = closed_form_thresholds(params, policy).x_cutoff
        outcome = simulate_continuation(params, policy, thetas, cutoff, config)
    columns = (thetas, outcome.alpha_mean, outcome.alpha_halfwidth, outcome.fall_frequency,
               outcome.welfare_mean)
    _write_table(
        "simulate", opts.get("format", "csv"), opts.get("out"), [(columns, {})],
        sigma=params.sigma, rbar=params.r_lower, mode=mode, r=policy, x_cutoff=cutoff,
        n_agents=config.n_agents, n_reps=config.n_reps, seed=config.master_seed,
    )
    return 0


def _cmd_verify(opts: dict) -> int:
    sigmas = _parse_float_list(opts["sigma"], "sigma") if "sigma" in opts else DEFAULT_SIGMA_GRID
    rbars = _parse_float_list(opts["rbar"], "rbar") if "rbar" in opts else DEFAULT_RBAR_GRID
    if not sigmas or not rbars:
        raise DomainError("verify needs at least one sigma and one rbar")
    grid = [ModelParams(s, rb) for s in sigmas for rb in rbars]
    report = run_verify(grid)
    if opts.get("format", "json") == "csv":
        rows = [
            (res.name, str(res.passed).lower(), res.points,
             "" if res.max_error is None else f"{res.max_error:.9g}", res.tolerance)
            for res in report.results
        ]
        _write_table("verify", "csv", opts.get("out"), [(list(zip(*rows)), {})])
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
# choices is the one statement of a value rule: argparse checks a flag
# against it, and _load_config_file a file value.
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


class _Parser(argparse.ArgumentParser):
    """Raises its refusals for run() to report; its subcommand parsers are _Parsers too."""

    def error(self, message: str):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regimelab",
        description="Equilibrium laboratory for the regime-change signalling game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand as (handler, help, its long options); every one also
    # takes --format, --out and --config. The handlers are read at each call,
    # so a wrapper set on this module, such as a tracer's, is the one run.
    commands = {
        "continuation": (
            _cmd_continuation,
            "fixed-policy equilibrium thresholds",
            ("sigma", "rbar", "r", "solver", "tol"),
        ),
        "signaling": (
            _cmd_signaling,
            "signalling-equilibrium threshold bundle",
            ("sigma", "rbar", "rprime"),
        ),
        "welfare-sweep": (
            _cmd_welfare_sweep,
            "region/attack/welfare over a theta grid",
            ("sigma", "rbar", "rprime", "theta"),
        ),
        "compare": (
            _cmd_compare,
            "welfare under two intervention levels",
            ("sigma", "rbar", "rprime", "rprime-hi", "theta", "tol"),
        ),
        "simulate": (
            _cmd_simulate,
            "finite-agent Monte Carlo",
            ("sigma", "rbar", "r", "rprime", "x-cutoff", "theta", "agents", "reps", "seed"),
        ),
        "verify": (_cmd_verify, "run the cross-checking suite", ("sigma", "rbar")),
    }
    for command, (handler, help_text, names) in commands.items():
        # No abbreviations: verify would read --r, another command's option, as --rbar.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in (*names, "format", "out", "config"):
            p.add_argument(f"--{name}", **_OPTIONS[name])
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and return the process exit code.

    The handler gets one dict, by dest, of the options given: the flags
    merged over the --config file's values. A refusal is one error line.
    """
    try:
        ns = vars(_build_parser().parse_args(argv))
        handler, path = ns.pop("handler"), ns.pop("config")
        opts = _load_config_file(path) if path else {}
        opts.update((name, value) for name, value in ns.items() if value is not None)
        return handler(opts)
    except SystemExit as exc:  # --help, once its text is printed
        return exc.code
    except RegimeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# The modules hashlib falls back on without _hashlib (CPython 3.12 merged
# _sha256 and _sha512 into _sha2). A build without one of them, FIPS-style,
# keeps _hashlib: hashlib would log each missing hash to stderr.
_BUILTIN_DIGESTS = ("_md5", "_sha1", "_sha3", "_blake2") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def main() -> None:
    # A closed stdout pipe (`| head`) ends the process silently, as it ends Unix filters.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # Importing numpy.random imports hashlib, whose _hashlib maps OpenSSL's
    # libcrypto (about 3.5 MiB resident) though no command hashes anything.
    from importlib.util import find_spec

    if all(find_spec(name) is not None for name in _BUILTIN_DIGESTS):
        sys.modules.setdefault("_hashlib", None)
    # With fd 2 closed at start sys.stderr is None, and print(file=None)
    # would put an error line on stdout: it goes to the null device instead.
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    code = run(sys.argv[1:])
    try:
        if sys.stdout is not None:  # None with fd 1 closed: nothing was written to it
            sys.stdout.flush()
    except OSError as exc:  # what stdout still holds cannot be written
        if code != 2:  # a run that exits 2 has reported its error already
            print(f"error: {_cannot_write('stdout', exc)}", file=sys.stderr)
            code = 2
    # Interpreter teardown (finalization, then numpy's and OpenBLAS's C
    # destructors) costs about 15 ms a command and does nothing a command
    # needs: the process ends here, with its streams flushed.
    try:
        sys.stderr.flush()
    except OSError:
        pass  # a stderr that cannot be written has nothing left to say
    os._exit(code or 0)


if __name__ == "__main__":
    main()
