"""Self-tests of the benchmark: its output checks and its traced pass.

    PYTHONPATH=src python -m pytest -q perfbench

The checks are fed real CLI output on small grids, then a corrupted copy.
The traced-pass tests run the real workloads and pin counts that repeat
exactly at this version of the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import WORKLOADS

cli = run.load_cli()

SMALL_THETAS = checks.theta_grid(0.0, 0.01, 701)


def _cli_output(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out"
    assert cli.run([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _replace_field(line: str, index: int, value: str) -> str:
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


def test_sweep_check_rejects_row_perturbed_by_1e_6(tmp_path):
    text = _cli_output(
        tmp_path, "welfare-sweep", "--sigma", "3", "--rbar", "0.2",
        "--rprime", "0.5,0.8", "--theta", "0:7:0.01",
    )
    checks.check_sweep_csv(text, 3.0, 0.2, [0.5, 0.8], SMALL_THETAS)
    lines = text.split("\n")
    row = 1 + 701 + 650  # r' = 0.8, theta = 6.5: no-attack, welfare = theta
    welfare = float(lines[row].split(",")[6])
    assert welfare == 6.5
    lines[row] = _replace_field(lines[row], 6, f"{welfare * (1 + 1e-6):.9g}")
    with pytest.raises(checks.CheckError, match=f"row {row - 1} welfare"):
        checks.check_sweep_csv("\n".join(lines), 3.0, 0.2, [0.5, 0.8], SMALL_THETAS)


def test_compare_check_rejects_bare_nan(tmp_path):
    text = _cli_output(
        tmp_path, "compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
        "--rprime-hi", "0.9", "--theta", "0:7:0.01", "--format", "json",
    )
    checks.check_compare_json(text, 3.0, 0.2, 0.8, 0.9, SMALL_THETAS)
    corrupted = text.replace('"attack": 0.985,', '"attack": NaN,', 1)
    assert corrupted != text
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.check_compare_json(corrupted, 3.0, 0.2, 0.8, 0.9, SMALL_THETAS)


def test_verify_check_rejects_one_failed_check(tmp_path):
    report = json.loads(_cli_output(tmp_path, "verify"))
    checks.check_verify_json(json.dumps(report))
    report["checks"][6]["passed"] = False
    report["n_failed"] = 1
    with pytest.raises(checks.CheckError, match="signaling.indifference"):
        checks.check_verify_json(json.dumps(report))


def test_simulate_check_rejects_alpha_off_the_ramp(tmp_path):
    thetas = checks.theta_grid(0.0, 0.05, 21)
    args = ("--sigma", "0.5", "--rbar", "0.2", "--r", "0.25", "--theta", "0:1:0.05")
    text = _cli_output(tmp_path, "simulate", *args, "--agents", "10000", "--reps", "5")
    checks.check_simulate_csv(text, 0.5, 0.2, 0.25, thetas, 10_000, 5, 42)
    lines = text.split("\n")
    # theta = 0.75: the ramp gives 0.75, and 6 standard errors are 0.012.
    lines[16] = _replace_field(lines[16], 9, "0.8")
    with pytest.raises(checks.CheckError, match="row 15 alpha_mean"):
        checks.check_simulate_csv("\n".join(lines), 0.5, 0.2, 0.25, thetas, 10_000, 5, 42)


def test_nonzero_exit_fails_even_with_a_good_output(tmp_path):
    out = tmp_path / "report.json"
    out.write_text(_cli_output(tmp_path, "verify"), encoding="utf-8")
    ledger = run.OutputLedger(WORKLOADS["verify-grid"], 42)
    assert ledger.judge(1, out) == "exit code 1"
    assert ledger.judge(0, tmp_path / "missing.json").startswith("no output")


def _traced_pass(tmp_path: Path, name: str) -> dict[str, float]:
    workload = WORKLOADS[name]
    out = tmp_path / f"out{workload.suffix}"
    tracer = tracing.Tracer()
    _, code = run.in_process(cli, [*workload.argv(42), "--out", str(out)], tracer)
    assert code == 0
    workload.check(out.read_text(encoding="utf-8"), 42)
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize(
    "name, metric, count",
    [
        ("sweep-dense", "signaling.eval_calls", 630_009),
        ("compare-json", "signaling.solve_calls", 3),
        ("mc-grid", "simulate.rng_streams", 420),
    ],
)
def test_traced_pass_reproduces_counts(tmp_path, name, metric, count):
    assert _traced_pass(tmp_path, name)[metric] == count


def _bindings() -> dict:
    found = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("regimelab")}
    found["numpy.random"] = dict(vars(np.random))
    return found


def test_tracer_restores_every_binding():
    before = _bindings()
    with tracing.Tracer():
        assert cli.ex_post_welfare is not before["regimelab.cli"]["ex_post_welfare"]
        assert np.random.default_rng is not before["numpy.random"]["default_rng"]
    assert _bindings() == before


def test_missing_layer_function_is_absent_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(sys.modules["regimelab.signaling"], "classify_region")
    tracer = tracing.Tracer()
    out = tmp_path / "sweep.csv"
    argv = [
        "welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
        "--theta", "0:7:0.01", "--out", str(out),
    ]
    _, code = run.in_process(cli, argv, tracer)
    assert code == 0
    metrics = tracing.layer_metrics(tracer)
    assert "signaling.eval_calls" not in metrics
    assert "signaling.eval_s" not in metrics
    assert metrics["signaling.solve_calls"] == 1
    assert metrics["cli.rows"] == 701


def test_benchmark_json_declares_the_metrics_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    imports = {name: "s" for name in run.import_profile(run.child_env())}
    assert per_layer == {**tracing.UNITS, **imports, "trace.overhead_s": "s"}
