"""Traced pass: time and count calls into each regimelab layer from outside.

The tracer wraps the layer functions of an already imported ``regimelab``
and is removed again after the pass; the program is not edited. Modules
bind names with ``from .signaling import ex_post_welfare``, so a wrapper is
installed on every regimelab module whose namespace holds the original
function, not only on the defining module.

Every call records its inclusive and self time (inclusive minus the time of
wrapped calls made inside it). Calls into functions marked as spans also
keep one (name, start, end, parent) record each; the hot scalar evaluators,
called hundreds of thousands of times, keep only their totals. Everything
stays in memory until ``spans`` and ``layer_metrics`` read it.

A function that no longer exists is reported as absent: every metric that
needs it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, keep one span per call)
TARGETS = (
    ("cli", "_cmd_continuation", True),
    ("cli", "_cmd_signaling", True),
    ("cli", "_cmd_welfare_sweep", True),
    ("cli", "_cmd_compare", True),
    ("cli", "_cmd_simulate", True),
    ("cli", "_cmd_verify", True),
    ("cli", "_parse_theta_spec", True),
    ("cli", "_parse_float_list", True),
    ("cli", "_emit_rows", True),
    ("cli", "_write_text", True),
    ("signaling", "solve_signaling", False),
    ("signaling", "classify_region", False),
    ("signaling", "aggregate_attack_no_intervention", False),
    ("signaling", "ex_post_welfare", False),
    ("statics", "compare_welfare", True),
    ("statics", "welfare_derivative_in_rprime", False),
    ("simulate", "simulate_continuation", True),
    ("simulate", "simulate_signaling", True),
    ("continuation", "closed_form_thresholds", False),
    ("continuation", "solve_iterated_dominance", False),
    ("verify", "run_verify", True),
)

HANDLERS = tuple(f"cli.{fn}" for _, fn, _ in TARGETS if fn.startswith("_cmd_"))
EVALUATORS = (
    "signaling.classify_region",
    "signaling.aggregate_attack_no_intervention",
    "signaling.ex_post_welfare",
)
RNG = "numpy.random.default_rng"


def _count_grid(args, result):
    return {"cli.grid_points": len(result)}


def _count_rows(args, result):
    return {"cli.rows": len(args[1])}


def _count_bytes(args, result):
    return {"cli.bytes_out": len(args[0].encode("utf-8"))}


def _count_compare(args, result):
    return {"statics.compare_points": len(result.theta_grid)}


def _count_iterations(args, result):
    _, trace = result
    return {"continuation.iterations": len(trace.upper_seq) - 1}


def _count_verify(args, result):
    return {
        "verify.check_points": sum(res.points for res in result.results),
        "verify.checks_failed": result.n_failed,
    }


# Counts read from a call's arguments or result, keyed by wrapped function.
HOOKS = {
    "cli._parse_theta_spec": _count_grid,
    "cli._emit_rows": _count_rows,
    "cli._write_text": _count_bytes,
    "statics.compare_welfare": _count_compare,
    "continuation.solve_iterated_dominance": _count_iterations,
    "verify.run_verify": _count_verify,
}


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the arrays it returns."""

    def __init__(self, generator, counts: Counter):
        self._generator = generator
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self._counts["simulate.draws_computed"] += out.size
                self._counts["simulate.bytes_computed"] += out.nbytes
            return out

        return counted


class Tracer:
    """Wraps the layer functions of an imported regimelab for one pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        # Time and number of calls entering a layer from outside it.
        self.layer_time: defaultdict = defaultdict(float)
        self.layer_entries: Counter = Counter()
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self.broken: set[str] = set()
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._origin = time.perf_counter()

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "regimelab" or name.startswith("regimelab.")
        ]
        for mod_name, fn_name, keep_span in TARGETS:
            home = sys.modules.get(f"regimelab.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            qualname = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(original, qualname, mod_name, keep_span)
            self.present.add(qualname)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        default_rng = np.random.default_rng

        @functools.wraps(default_rng)
        def counting_rng(*args, **kwargs):
            self.calls[RNG] += 1
            return _CountingGenerator(default_rng(*args, **kwargs), self.counts)

        self._patch(np.random, "default_rng", counting_rng)
        self.present.add(RNG)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _wrap(self, func, qualname: str, layer: str, keep_span: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hook = HOOKS.get(qualname)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            # frame: [time of wrapped calls inside, layer, enclosing span index]
            frame = [0.0, layer, len(spans) if keep_span else parent_span]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[qualname] += 1
                self.total[qualname] += duration
                self.self_time[qualname] += duration - frame[0]
                if parent is None or parent[1] != layer:
                    self.layer_time[layer] += duration
                    self.layer_entries[layer] += 1
                if keep_span:
                    spans[frame[2]] = (
                        qualname, start - self._origin, end - self._origin, parent_span
                    )
                if parent is not None:
                    # The wrapper's own bookkeeping is charged to the child, so
                    # the parent's self time stays close to its untraced value.
                    parent[0] += clock() - enter
            if hook is not None and qualname not in self.broken:
                try:
                    self.counts.update(hook(args, result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.broken.add(qualname)
            return result

        return wrapper


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


_C = "count"
# (name, unit, wrapped functions it needs, value from a finished Tracer)
METRICS = (
    ("cli.format_s", "s", ["cli._emit_rows"], lambda t: t.self_time["cli._emit_rows"]),
    (
        "cli.format_mib_per_s", "MiB/s", ["cli._emit_rows", "cli._write_text"],
        lambda t: _rate(t.counts["cli.bytes_out"] / 2**20, t.self_time["cli._emit_rows"]),
    ),
    ("cli.write_s", "s", ["cli._write_text"], lambda t: t.total["cli._write_text"]),
    (
        "cli.parse_s", "s", ["cli._parse_theta_spec", "cli._parse_float_list"],
        lambda t: t.total["cli._parse_theta_spec"] + t.total["cli._parse_float_list"],
    ),
    ("cli.self_s", "s", HANDLERS, lambda t: sum(t.self_time[h] for h in HANDLERS)),
    ("cli.grid_points", _C, ["cli._parse_theta_spec"], lambda t: t.counts["cli.grid_points"]),
    ("cli.rows", _C, ["cli._emit_rows"], lambda t: t.counts["cli.rows"]),
    ("cli.bytes_out", "B", ["cli._write_text"], lambda t: t.counts["cli.bytes_out"]),
    (
        "signaling.eval_calls", _C, EVALUATORS,
        lambda t: sum(t.calls[f] for f in EVALUATORS),
    ),
    ("signaling.eval_s", "s", EVALUATORS, lambda t: sum(t.total[f] for f in EVALUATORS)),
    (
        "signaling.solve_calls", _C, ["signaling.solve_signaling"],
        lambda t: t.calls["signaling.solve_signaling"],
    ),
    (
        "statics.compare_s", "s", ["statics.compare_welfare"],
        lambda t: t.total["statics.compare_welfare"],
    ),
    (
        "statics.compare_points", _C, ["statics.compare_welfare"],
        lambda t: t.counts["statics.compare_points"],
    ),
    (
        "statics.deriv_calls", _C, ["statics.welfare_derivative_in_rprime"],
        lambda t: t.calls["statics.welfare_derivative_in_rprime"],
    ),
    (
        "simulate.sim_s", "s", ["simulate.simulate_continuation"],
        lambda t: t.layer_time["simulate"],
    ),
    (
        "simulate.calls", _C, ["simulate.simulate_continuation"],
        lambda t: t.layer_entries["simulate"],
    ),
    ("simulate.rng_streams", _C, [RNG], lambda t: t.calls[RNG]),
    (
        "simulate.draws_computed", _C, [RNG],
        lambda t: t.counts["simulate.draws_computed"],
    ),
    (
        "simulate.draws_per_s", "1/s", [RNG, "simulate.simulate_continuation"],
        lambda t: _rate(t.counts["simulate.draws_computed"], t.layer_time["simulate"]),
    ),
    (
        "simulate.bytes_computed", "B", [RNG],
        lambda t: t.counts["simulate.bytes_computed"],
    ),
    (
        "continuation.iterated_calls", _C, ["continuation.solve_iterated_dominance"],
        lambda t: t.calls["continuation.solve_iterated_dominance"],
    ),
    (
        "continuation.iterations", _C, ["continuation.solve_iterated_dominance"],
        lambda t: t.counts["continuation.iterations"],
    ),
    (
        "continuation.iterated_s", "s", ["continuation.solve_iterated_dominance"],
        lambda t: t.total["continuation.solve_iterated_dominance"],
    ),
    (
        "continuation.closed_form_calls", _C, ["continuation.closed_form_thresholds"],
        lambda t: t.calls["continuation.closed_form_thresholds"],
    ),
    ("verify.run_s", "s", ["verify.run_verify"], lambda t: t.total["verify.run_verify"]),
    (
        "verify.check_points", _C, ["verify.run_verify"],
        lambda t: t.counts["verify.check_points"],
    ),
    (
        "verify.points_per_s", "1/s", ["verify.run_verify"],
        lambda t: _rate(t.counts["verify.check_points"], t.total["verify.run_verify"]),
    ),
    (
        "verify.checks_failed", _C, ["verify.run_verify"],
        lambda t: t.counts["verify.checks_failed"],
    ),
)
UNITS = {name: unit for name, unit, _, _ in METRICS}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; absent inputs drop their metrics."""
    return {
        name: value(t)
        for name, _, needs, value in METRICS
        if all(n in t.present and n not in t.broken for n in needs)
    }
