"""CLI behaviour: schemas, determinism, round-trips, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regimelab import (
    DomainError,
    ModelParams,
    PolicyRegion,
    Verdict,
    closed_form_thresholds,
    run,
    run_verify,
    solve_iterated_dominance,
    solve_signaling,
)
from regimelab.cli import (
    _COLUMNS,
    _json_cells,
    _parse_theta_spec,
    _write_record,
    _write_table,
)

WIDE = ModelParams(sigma=3.0, r_lower=0.2)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestContinuationCommand:
    def test_json_object(self, capsys):
        code = run(["continuation", "--sigma", "0.5", "--r", "0.25", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x_cutoff"] == 1.0
        assert payload["theta_cutoff"] == 0.75
        assert payload["solver"] == "closed-form"

    def test_iterated_solver_agrees(self, capsys):
        run(["continuation", "--sigma", "0.5", "--r", "0.25", "--format", "json",
             "--solver", "iterated"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["x_cutoff"] == pytest.approx(1.0, abs=1e-9)
        assert payload["solver"] == "iterated"

    def test_iterated_solver_sizes_its_budget_at_small_sigma(self, capsys):
        # The contraction modulus 1/(1 + 2*sigma) is near 1 here: about
        # 11,000 rounds, past the fixed budget of 10,000 the solver once had.
        code = run(["continuation", "--sigma", "1e-3", "--r", "0.25", "--solver", "iterated",
                    "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        closed = closed_form_thresholds(ModelParams(sigma=1e-3, r_lower=0.2), 0.25)
        assert payload["x_cutoff"] == pytest.approx(closed.x_cutoff, abs=1e-9)
        assert payload["theta_cutoff"] == pytest.approx(closed.theta_cutoff, abs=1e-9)

    def test_iterated_budget_past_the_cap_exits_2_without_iterating(self, capsys, monkeypatch):
        import regimelab.continuation as continuation_module

        def no_rounds(*args):
            raise AssertionError("iterated before checking its budget")

        monkeypatch.setattr(continuation_module, "best_response_cutoff", no_rounds)
        code = run(["continuation", "--sigma", "1e-6", "--r", "0.25", "--solver", "iterated"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "sigma = 1e-06 needs 10,910,952 rounds" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["continuation", "--sigma", "5e-324", "--r", "0.5", "--solver", "iterated"],
            ["verify", "--sigma", "5e-324", "--rbar", "0.2"],
            ["continuation", "--sigma", "1e-300", "--r", "0.5", "--solver", "iterated"],
        ],
    )
    def test_iterated_budget_at_tiny_sigma_exits_2_on_one_bounded_line(self, argv, capsys):
        # The budget overflows to inf below sigma of about 6e-308, and had
        # hundreds of digits above it.
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sigma = ") and captured.err.count("\n") == 1
        assert "needs more than 1e+15 rounds, over 1,000,000" in captured.err

    def test_iterated_tolerance_wider_than_the_start_takes_one_round(self):
        eq, trace = solve_iterated_dominance(ModelParams(1e-320, 0.2), 0.5, tol=1e300)
        assert len(trace.upper_seq) == 2 and eq.theta_cutoff == 0.5

    def test_csv_schema(self, capsys):
        code = run(["continuation", "--sigma", "0.5", "--r", "0.25"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sigma,r,x_cutoff,theta_cutoff"
        assert lines[1] == "0.5,0.25,1,0.75"

    def test_invalid_sigma_exits_2(self, capsys):
        code = run(["continuation", "--sigma", "-1", "--r", "0.25"])
        assert code == 2
        assert "sigma must be positive" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["continuation", "--sigma", "0.5", "--bogus", "1"]) == 2

    @pytest.mark.parametrize("solver", ["closed-form", "iterated"])
    @pytest.mark.parametrize(
        "tol, message",
        [("0", "tol must be positive and finite"), ("abc", "tol must be a number")],
    )
    def test_invalid_tol_exits_2_for_either_solver(self, solver, tol, message, capsys):
        code = run(["continuation", "--sigma", "0.5", "--r", "0.25", "--solver", solver,
                    "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1


class TestSignalingCommand:
    def test_bundle_row(self, capsys):
        code = run(["signaling", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta_lower"] == pytest.approx(0.18)
        assert payload["theta_upper"] == pytest.approx(4.83)
        assert payload["x_prime"] == pytest.approx(2.91)
        assert payload["theta_no_attack"] == pytest.approx(5.91)

    def test_missing_rbar_exits_2(self, capsys):
        code = run(["signaling", "--sigma", "3", "--rprime", "0.8"])
        assert code == 2
        assert "--rbar" in capsys.readouterr().err


class TestWelfareSweepCommand:
    def test_known_rows(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--theta", "0:7:0.01", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 701
        by_theta = {float(row["theta"]): row for row in rows}
        assert float(by_theta[0.1]["welfare"]) == 0.0
        assert float(by_theta[1.0]["welfare"]) == pytest.approx(0.82, abs=1e-6)
        assert float(by_theta[5.0]["welfare"]) == pytest.approx(4.8483333, abs=1e-6)

    def test_attack_curve_structure(self, tmp_path):
        # Emitted curve must be the 1 / ramp / 0 shape with the solver's breakpoints.
        out = tmp_path / "fig.csv"
        run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta=-1:7:0.01", "--out", str(out)])
        rows = read_csv(out)
        eq = solve_signaling(WIDE, 0.8)
        bottom = eq.theta_upper + 2 * WIDE.sigma * (eq.theta_lower - 1.0)
        for row in rows:
            theta = float(row["theta"])
            attack = float(row["attack"])
            if theta < bottom - 1e-9:
                assert attack == 1.0
            elif theta >= eq.theta_no_attack - 1e-9:
                assert attack <= 1e-8
            else:
                expected = eq.theta_lower + (eq.theta_upper - theta) / (2 * WIDE.sigma)
                assert attack == pytest.approx(expected, abs=1e-8)
        ramp = [r for r in rows if bottom + 0.02 < float(r["theta"]) < eq.theta_no_attack - 0.02]
        slopes = [
            (float(b["attack"]) - float(a["attack"])) / (float(b["theta"]) - float(a["theta"]))
            for a, b in zip(ramp, ramp[1:])
        ]
        assert all(s == pytest.approx(-1 / (2 * WIDE.sigma), abs=1e-6) for s in slopes)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                "--theta", "0:7:0.01"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(args + ["--out", str(first)])
        run(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_at_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fig.csv"
        run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "0:7:0.07", "--out", str(out)])
        rows = read_csv(out)
        eq = solve_signaling(WIDE, 0.8)
        from regimelab import aggregate_attack_no_intervention, ex_post_welfare

        for k, row in enumerate(rows):
            theta = 0.0 + k * 0.07
            assert row["theta"] == f"{theta:.9g}"
            assert float(row["theta"]) == float(f"{theta:.9g}")
            for name, value in (
                ("attack", aggregate_attack_no_intervention(WIDE, eq, theta)),
                ("welfare", ex_post_welfare(WIDE, eq, theta)),
            ):
                assert float(row[name]) == float(f"{value:.9g}")

    def test_multiple_rprime_blocks(self, capsys):
        code = run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2",
                    "--rprime", "0.5,0.8", "--theta", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("3,0.2,0.5,1,")
        assert lines[2].startswith("3,0.2,0.8,1,")


class TestCompareCommand:
    def test_crossing_in_noisy_regime(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--rprime-hi", "0.9", "--theta", "0:7:0.01", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0].keys() == {
            "sigma", "rbar", "rprime", "theta", "region", "attack", "welfare",
            "rprime_hi", "welfare_hi", "verdict",
        }
        diffs = {float(r["theta"]): float(r["welfare_hi"]) - float(r["welfare"]) for r in rows}
        verdicts = {float(r["theta"]): r["verdict"] for r in rows}
        assert diffs[0.5] < 0
        assert diffs[5.0] == pytest.approx(0.0054167, abs=1e-6)
        assert verdicts[0.5] == "lower-under-aggressive"
        assert verdicts[5.0] == "higher-under-aggressive"
        assert any(d > 1e-9 for d in diffs.values())
        assert any(d < -1e-9 for d in diffs.values())

    def test_precise_regime_never_higher(self, tmp_path):
        out = tmp_path / "cmp.csv"
        run(["compare", "--sigma", "0.5", "--rbar", "0.2", "--rprime", "0.8",
             "--rprime-hi", "0.9", "--theta", "0:7:0.01", "--out", str(out)])
        rows = read_csv(out)
        assert all(r["verdict"] != "higher-under-aggressive" for r in rows)
        assert all(
            float(r["welfare_hi"]) - float(r["welfare"]) <= 1e-9 for r in rows
        )


_SLICED_SWEEP = ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--theta", "0:3.3:0.0001"]
_SLICED_COMPARE = ["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                   "--rprime-hi", "0.9", "--theta", "0:3.3:0.0001"]


class TestStreamedTables:
    """Tables are written a block of at most 16,384 rows at a time."""

    @staticmethod
    def peak(argv, out):
        tracemalloc.start()
        try:
            assert run([*argv, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_does_not_grow_with_the_rprime_count(self, fmt, tmp_path):
        # 33,001 theta, three slices per r'. Building the whole table before
        # writing it peaked at about 45 MiB with 6 r' against 10 MiB with 1 in
        # CSV, and 135 against 23 MiB in JSON. Block by block, what stays is
        # the theta grid and one block.
        argv = [*_SLICED_SWEEP, "--format", fmt]
        out = tmp_path / "out"
        run([*argv, "--rprime", "0.8", "--out", str(out)])
        one = self.peak([*argv, "--rprime", "0.8"], out)
        six = self.peak([*argv, "--rprime", "0.3,0.5,0.8,1,1.2,1.4"], out)
        assert six < 1.5 * one

    def test_bad_later_rprime_writes_nothing(self, tmp_path, capsys):
        # r' = 5 is past r_tilde; every r' is solved before the first block.
        argv = [*_SLICED_SWEEP, "--rprime", "0.5,5"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @staticmethod
    def fail_on_slice(monkeypatch, k):
        """Make the sweep's welfare evaluation raise on its k-th slice; return the slice sizes."""
        from regimelab import statics

        calls = []
        welfare = statics.ex_post_welfare

        def welfare_failing_on_slice_k(params, eq, grid):
            calls.append(len(grid))
            if len(calls) == k:
                raise DomainError(f"slice {k} refused")
            return welfare(params, eq, grid)

        monkeypatch.setattr(statics, "ex_post_welfare", welfare_failing_on_slice_k)
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_after_the_first_block_leaves_no_file(self, fmt, tmp_path, monkeypatch):
        calls = self.fail_on_slice(monkeypatch, 2)
        out = tmp_path / "out"
        out.write_text("an earlier table\n")
        assert run([*_SLICED_SWEEP, "--rprime", "0.8", "--format", fmt, "--out", str(out)]) == 2
        assert calls == [16_384, 16_384]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_before_the_first_byte_leaves_an_existing_file(
        self, fmt, tmp_path, monkeypatch
    ):
        # The file is opened at the first write, so it is neither truncated nor removed.
        calls = self.fail_on_slice(monkeypatch, 1)
        out = tmp_path / "out"
        out.write_text("an earlier table\n")
        assert run([*_SLICED_SWEEP, "--rprime", "0.8", "--format", fmt, "--out", str(out)]) == 2
        assert calls == [16_384]
        assert out.read_text() == "an earlier table\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_error_after_the_first_block_leaves_no_file(
        self, fmt, tmp_path, monkeypatch
    ):
        # compare evaluates welfare twice a slice, so the third call is in the second slice.
        calls = self.fail_on_slice(monkeypatch, 3)
        out = tmp_path / "out"
        out.write_text("an earlier table\n")
        assert run([*_SLICED_COMPARE, "--format", fmt, "--out", str(out)]) == 2
        assert calls == [16_384] * 3
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_error_before_the_first_byte_leaves_an_existing_file(
        self, fmt, tmp_path, monkeypatch
    ):
        # The second call is the first slice's welfare under r_high.
        calls = self.fail_on_slice(monkeypatch, 2)
        out = tmp_path / "out"
        out.write_text("an earlier table\n")
        assert run([*_SLICED_COMPARE, "--format", fmt, "--out", str(out)]) == 2
        assert calls == [16_384] * 2
        assert out.read_text() == "an earlier table\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_error_after_the_first_block_leaves_a_fifo_in_place(self, tmp_path, monkeypatch):
        # Only a regular file is removed: a FIFO, like a device, is not the table's to delete.
        self.fail_on_slice(monkeypatch, 2)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run([*_SLICED_SWEEP, "--rprime", "0.8", "--out", str(fifo)]) == 2
        reader.join(timeout=30)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received[0].startswith(b"sigma,rbar,rprime,theta,")
        assert received[0].count(b"\n") == 1 + 16_384

    @pytest.mark.parametrize(
        "argv",
        [
            ["continuation", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25"],
            ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "0:1:0.5"],
            ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25", "--theta", "1",
             "--agents", "10", "--reps", "2"],
            ["verify", "--sigma", "0.5", "--rbar", "0.2", "--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_path_that_cannot_be_opened_exits_2_on_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.parent.exists()


class TestSimulateCommand:
    def test_continuation_mode_row(self, capsys):
        code = run(["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
                    "--theta", "1.0", "--agents", "100000", "--reps", "20",
                    "--seed", "42", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["mode"] == "continuation"
        assert row["x_cutoff"] == 1.0
        assert abs(row["alpha_mean"] - 0.5) <= 0.01
        assert row["fall_freq"] == 0.0

    def test_signaling_mode_rows(self, capsys):
        code = run(["simulate", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--theta", "1.0:5.0:4.0", "--agents", "10000", "--seed", "7",
                    "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["theta"] for row in rows] == [1.0, 5.0]
        assert rows[0]["alpha_mean"] == 0.0
        assert rows[0]["welfare_mean"] == pytest.approx(0.82, abs=1e-9)
        assert abs(rows[1]["alpha_mean"] - 0.1516667) <= 0.01

    def test_both_modes_rejected(self, capsys):
        code = run(["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
                    "--rprime", "0.8", "--theta", "1.0"])
        assert code == 2
        assert "either" in capsys.readouterr().err

    def test_x_cutoff_with_rprime_rejected(self, capsys):
        # Signalling mode plays x_prime; the override used to be read by
        # nothing, so the output matched the run without it, with exit 0.
        code = run(["simulate", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--x-cutoff", "100", "--theta", "1.0", "--agents", "10", "--reps", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --x-cutoff") and captured.err.count("\n") == 1

    def test_agents_above_bound_exits_2(self, capsys):
        # Refused by SimConfig before any panel is drawn.
        code = run(["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
                    "--theta", "1.0", "--agents", "100000001"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_agents must lie in [1, 100,000,000]\n"

    @pytest.mark.parametrize(
        "argv, cells",
        [
            # 1e11 replications used to end in an _ArrayMemoryError traceback.
            (["--r", "0.25", "--theta", "0", "--agents", "1", "--reps", "100000000000"],
             "1 theta x 100,000,000,000 replications"),
            # 20,002,000 cells, one past 10,001 theta x 2,000: a 160 MB matrix
            # that would have been allocated, in signalling mode too.
            (["--r", "0.25", "--theta", "0:1:0.0001", "--agents", "1", "--reps", "2000"],
             "10,001 theta x 2,000 replications"),
            (["--rprime", "0.8", "--theta", "0:1:0.0001", "--agents", "1", "--reps", "2000"],
             "10,001 theta x 2,000 replications"),
        ],
    )
    def test_replication_matrix_above_bound_exits_2_unallocated(self, argv, cells, capsys,
                                                              monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
        tracemalloc.start()
        try:
            code = run(["simulate", "--sigma", "3", "--rbar", "0.2", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cells} exceeds 20,000,000 simulated cells\n"
        assert draws == []
        assert peak < 16 * 2**20, peak

    def test_deterministic_csv(self, tmp_path):
        args = ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
                "--theta", "0.5:1.5:0.5", "--agents", "5000", "--seed", "9"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(args + ["--out", str(first)])
        run(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code = run(["verify"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_failed"] == 0
        assert report["n_checks"] > 0
        assert all(check["passed"] for check in report["checks"])

    def test_small_sigma_passes(self, capsys):
        # The dominance oracle used to stop at a fixed 10,000 rounds here.
        code = run(["verify", "--sigma", "1e-3", "--rbar", "0.2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["n_checks"], report["n_failed"]) == (15, 0)

    @pytest.mark.parametrize(
        "sigmas, line",
        [
            ("1e-6", "sigma = 1e-06 needs 10,910,952 rounds, over 1,000,000"),
            ("1e-310", "sigma = 1e-310 needs more than 1e+15 rounds, over 1,000,000"),
            ("1e-310,1e-6", "sigma = 1e-310 needs more than 1e+15 rounds, over 1,000,000"),
            ("1e308,1e-6", "continuation thresholds are not finite at sigma = 1e+308"),
            ("1e-6,1e308", "sigma = 1e-06 needs 10,910,952 rounds, over 1,000,000"),
            # Rounding stalls the bracket at r = 0.75 at this sigma.
            ("0.5,5735514493980689",
             "cutoff bracket still 5.000e-01 wide after 3 iterations (tol=1.0e-09)"),
            ("1e-6,5735514493980689", "sigma = 1e-06 needs 10,910,952 rounds, over 1,000,000"),
        ],
    )
    def test_first_failing_point_names_the_exit_2_line(self, sigmas, line, capsys):
        # The dominance oracle is solved for the whole grid before the point
        # loop, but a point it refuses still fails at its turn, after its
        # closed form and family, as when each point was solved on its own.
        assert run(["verify", "--sigma", sigmas, "--rbar", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    @pytest.mark.parametrize("flag", ["--sigma", "--rbar"])
    def test_empty_grid_exits_2(self, flag, capsys):
        assert run(["verify", flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify needs at least one sigma and one rbar\n"

    def test_csv_format(self, capsys):
        code = run(["verify", "--sigma", "0.5", "--rbar", "0.2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,passed,points,max_error,tolerance"
        assert all(",true," in line for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nan_error_fails_its_check_without_warnings(self, fmt, capsys):
        # At this sigma some finite-difference errors are NaN: the check must
        # fail on them, not report a pass with a max error of 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "--sigma", "5e307", "--rbar", "0.2", "--format", fmt])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("verify: 6 of 15 checks failed: ")
        assert "statics.derivative-finite-difference" in captured.err
        if fmt == "json":
            checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        else:
            checks = {c["name"]: c for c in csv.DictReader(io.StringIO(captured.out))}
        check = checks["statics.derivative-finite-difference"]
        assert (check["passed"], check["max_error"]) == (
            (False, None) if fmt == "json" else ("false", "")
        )

    def test_failures_exit_1_and_are_listed(self, capsys, monkeypatch):
        import regimelab.cli as cli_module
        from regimelab import CheckResult, VerifyReport

        failing = VerifyReport(
            results=(
                CheckResult("signaling.indifference", False, 10, 1e-7, 1e-12),
                CheckResult("welfare.continuity", True, 10, 1e-15, 1e-12),
            )
        )
        monkeypatch.setattr(cli_module, "run_verify", lambda grid: failing)
        code = run(["verify"])
        assert code == 1
        captured = capsys.readouterr()
        assert "signaling.indifference" in captured.err
        assert "1 of 2 checks failed" in captured.err


class TestVerifyHook:
    def test_perturbed_indifference_fails(self, monkeypatch):
        # Fault injection: every equilibrium verify solves has theta_upper
        # raised by 1e-6, which the indifference check must catch.
        import regimelab.verify as verify_module

        def shifted(params, r_prime):
            eq = solve_signaling(params, r_prime)
            return dataclasses.replace(eq, theta_upper=eq.theta_upper + 1e-6)

        monkeypatch.setattr(verify_module, "solve_signaling", shifted)
        grid = [ModelParams(3.0, 0.2), ModelParams(0.5, 0.5)]
        report = run_verify(grid)
        failed = report.failed_names
        assert "signaling.indifference" in failed

    def test_each_point_is_solved_once(self, monkeypatch):
        import regimelab.verify as verify_module

        # Points are solved a block at a time, so count the policy elements
        # each call solves: 21 per point, and no point twice.
        solved = []

        def counted(params, r):
            cont = closed_form_thresholds(params, r)
            solved.append(np.size(cont.x_cutoff))
            return cont

        monkeypatch.setattr(verify_module, "closed_form_thresholds", counted)
        grid = [ModelParams(3.0, 0.2), ModelParams(0.5, 0.5), ModelParams(1.0, 0.35)] * 7
        report = run_verify(grid)
        assert report.n_failed == 0
        assert sum(solved) == 21 * len(grid)

    def test_dominance_oracle_does_not_read_the_closed_form(self, monkeypatch):
        import regimelab.verify as verify_module

        def shifted(params, r):
            cont = closed_form_thresholds(params, r)
            return dataclasses.replace(cont, x_cutoff=cont.x_cutoff + 1e-6)

        monkeypatch.setattr(verify_module, "closed_form_thresholds", shifted)
        report = run_verify([ModelParams(3.0, 0.2), ModelParams(0.5, 0.5)])
        assert "continuation.dominance-oracle" in report.failed_names

    def test_dominance_oracle_never_calls_the_scalar_solver(self, monkeypatch):
        import regimelab.continuation as continuation_module

        def scalar(*args, **kwargs):
            raise AssertionError("verify called the scalar dominance solver")

        monkeypatch.setattr(continuation_module, "solve_iterated_dominance", scalar)
        sigmas = (0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20)
        rbars = np.arange(1, 19) / 20
        report = run_verify([ModelParams(s, float(rb)) for s in sigmas for rb in rbars])
        assert (report.n_checks, report.n_failed) == (15, 0)
        assert sum(res.points for res in report.results) == 619_203

    def test_unperturbed_passes(self):
        grid = [ModelParams(3.0, 0.2), ModelParams(0.5, 0.5)]
        report = run_verify(grid)
        assert report.n_failed == 0


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma=0.5\nr=0.9\n# comment\n", encoding="utf-8")
        code = run(["continuation", "--config", str(config), "--r", "0.25",
                    "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == 0.5
        assert payload["r"] == 0.25

    def test_config_supplies_missing_required(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma=0.5\nr=0.25\n", encoding="utf-8")
        code = run(["continuation", "--config", str(config), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["x_cutoff"] == 1.0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # A misspelt key used to be dropped: with --rprime passed the run
        # succeeded, without it the error named the wrong cause.
        config = tmp_path / "run.cfg"
        config.write_text("sigma=3\nrbar=0.2\nrpime=0.8\n", encoding="utf-8")
        for extra in (["--rprime", "0.8"], []):
            assert run(["signaling", "--config", str(config), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {config}:3: unknown key 'rpime'\n"

    def test_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        # One file may serve several subcommands; each reads only its own keys.
        config = tmp_path / "run.cfg"
        config.write_text("sigma=3\nrbar=0.2\nrprime=0.8\ntheta=0:7:0.01\nrprime-hi=0.9\n",
                          encoding="utf-8")
        assert run(["signaling", "--config", str(config), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["x_prime"] == pytest.approx(2.91)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma 0.5\n", encoding="utf-8")
        assert run(["continuation", "--config", str(config), "--r", "0.25"]) == 2

    def test_config_key_exits_2(self, tmp_path, capsys):
        # A nested config path used to be accepted and silently never read.
        config = tmp_path / "run.cfg"
        config.write_text("sigma=0.5\nconfig=/nonexistent.cfg\n", encoding="utf-8")
        assert run(["continuation", "--config", str(config), "--r", "0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {config}:2: a config file cannot name another one\n"
        )


class TestThetaGrid:
    def test_grid_never_passes_hi(self, capsys):
        # 7 / 0.4 = 17.5 steps: rounding the count up used to emit theta = 7.2.
        grid = _parse_theta_spec("0:7:0.4")
        assert len(grid) == 18
        assert grid[-1] == pytest.approx(6.8)
        assert run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--theta", "0:7:0.4"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split(",")[3] == "6.8"

    @pytest.mark.parametrize("spec", ["0:7:0.0001", "0:1:0.05", "0:0.3:0.1", "0:7:0.01",
                                      "-1:7:0.01", "0.1:0.7:0.2"])
    def test_whole_step_spans_keep_their_points(self, spec):
        # Spans that divide exactly up to rounding keep the last point, bit for bit.
        lo, hi, step = (float(part) for part in spec.split(":"))
        count = int(round((hi - lo) / step))
        assert _parse_theta_spec(spec) == [lo + k * step for k in range(count + 1)]

    @pytest.mark.parametrize("spec", ["0:1:1e-300", "0:10000000:1"])
    def test_point_count_is_bounded(self, spec, capsys):
        # 1e300 points used to end in a MemoryError traceback; 10,000,001 is
        # the first count past the bound.
        with pytest.raises(DomainError, match="more than 10,000,000 points"):
            _parse_theta_spec(spec)
        assert run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
                    "--theta", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "nan"],
            ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "inf"],
            ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "0:inf:1"],
            ["signaling", "--sigma", "inf", "--rbar", "0.2", "--rprime", "0.8"],
            ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
             "--theta=-inf", "--agents", "100", "--reps", "2"],
            ["verify", "--sigma", "1,nan"],
            ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
             "--theta=-1e308:1e308:1e307"],
        ],
    )
    def test_rejected_with_one_line_diagnostic(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be finite" in captured.err
        assert captured.err.count("\n") == 1

    def test_non_finite_result_is_not_written_as_json(self, capsys):
        # sigma this large overflows the thresholds to NaN; JSON cannot carry it.
        code = run(["signaling", "--sigma", "1e308", "--rbar", "0.2", "--rprime", "0.8",
                    "--format", "json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_non_finite_record_leaves_an_existing_out_file(self, tmp_path):
        # The record is formatted before its file is opened.
        out = tmp_path / "out.json"
        out.write_text("an earlier record\n")
        with pytest.raises(DomainError, match="^result is not finite"):
            _write_record("continuation", (0.5, 0.25, math.nan, 0.75), "json", str(out),
                          solver="closed-form")
        assert out.read_text() == "an earlier record\n"


def _compare_table(theta_cell, welfare):
    """Two compare rows in which theta_cell varies, and the constants with welfare among them."""
    rows = [(theta, "intervene", 0.5, 1.0, "equal") for theta in (theta_cell, 1.5)]
    return rows, dict(sigma=3.0, rbar=0.2, rprime=0.8, welfare=welfare, rprime_hi=0.9)


def _written(command, blocks, fmt, **constants) -> str:
    """The text _write_table writes to stdout for blocks, a list of (rows, block constants)."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        _write_table(command, fmt, None, blocks, **constants)
    return buf.getvalue()


class TestJsonEncoder:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["varying", "constant"])
    def test_non_finite_cell_raises_and_writes_nothing(self, bad, where, tmp_path):
        rows, constants = _compare_table(*((bad, 0.25) if where == "varying" else (0.5, bad)))
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match="^result is not finite"):
            _write_table("compare", "json", str(out), [(rows, {})], **constants)
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["varying", "constant"])
    def test_non_finite_cell_raises_before_its_block_is_written(self, bad, where):
        # The second block holds the bad cell, as a row cell or as a constant
        # of that block alone; the first block is written whole, and nothing after it.
        rows, constants = _compare_table(0.5, 0.25)
        welfare = constants.pop("welfare")
        bad_rows = _compare_table(bad, 0.25)[0] if where == "varying" else rows
        first = (rows, {"welfare": welfare})
        second = (bad_rows, {"welfare": bad if where == "constant" else welfare})
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            with pytest.raises(DomainError, match="^result is not finite"):
                _write_table("compare", "json", None, [first, second], **constants)
        whole_first = _written("compare", [first], "json", **constants)
        assert whole_first.endswith("\n]\n")
        assert buf.getvalue() == whole_first[: -len("\n]\n")]

    @pytest.mark.parametrize(
        "value",
        [1e9, 123456789.0, 1e16, 1e-5, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 2.5],
    )
    def test_float_cells_follow_the_nine_digit_rule(self, value):
        # theta is a row cell, welfare a declared constant baked into the template.
        rows, constants = _compare_table(value, value)
        text = _written("compare", [(rows, {})], "json", **constants)
        first = text.splitlines()[2 : 2 + len(_COLUMNS["compare"])]
        cells = dict(line.strip().rstrip(",").split(": ") for line in first)
        expected = json.dumps(float(f"{value:.9g}"))
        assert cells['"theta"'] == cells['"welfare"'] == expected
        assert text.count(f'"welfare": {expected},') == 2

        text = _written("compare", [(rows, {})], "csv", **constants)
        first_row = text.splitlines()[1].split(",")
        assert first_row[3] == first_row[6] == f"{value:.9g}"

    def test_equal_cells_of_distinct_sign_stay_distinct(self):
        # 0.0 == -0.0, yet each row cell is encoded on its own, so both signs
        # are written; only a declared constant is encoded once.
        rows, constants = _compare_table(0.5, 0.0)
        welfare = constants.pop("welfare")
        rows = [row[:3] + (cell,) + row[3:] for row, cell in zip(rows, (welfare, -0.0))]
        text = _written("compare", [(rows, {})], "json", **constants)
        assert '"welfare": 0.0,' in text and '"welfare": -0.0,' in text


# Floats at the edges of the JSON cell rule, where the .9g text is kept as it
# is or fixed up through the shortest float repr.
_NUMBER_EDGES = [
    # Subnormals, and the neighbours of the smallest normal.
    5e-324, -5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
    math.nextafter(sys.float_info.min, 1.0),
    0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
    # Every power of ten from 1e-323, the smallest a double holds, to 1e308.
    *(float(f"1e{k}") for k in range(-323, 309)),
    # Nine-digit roundings that carry into the next decade.
    0.99999999995, 999999999.5, 9.9999999995e-5, 99999999.95, 9.9999999995e15,
    -0.99999999995, -999999999.5,
    # .9g switches to an exponent below 1e-4 and from 1e9; repr does so
    # below 1e-4 and from 1e16.
    *(sign * 1.23456789 * 10.0**k for k in (-5, -4, 8, 9, 15, 16) for sign in (1, -1)),
    0.1 + 0.2, 2.5, 3.0, 123456789.0, 1.5e16,
]


def _with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value=value)(test)
        return test
    return decorate


class TestJsonNumberText:
    @settings(max_examples=500, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @_with_examples(_NUMBER_EDGES)
    def test_float_cell_is_the_repr_of_its_nine_digit_rounding(self, value):
        assert _json_cells([value]) == [repr(float(f"{value:.9g}"))]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["row", "constant"])
    def test_non_finite_cell_after_finite_ones_raises_and_writes_nothing(
        self, bad, where, tmp_path
    ):
        # The non-finite cell sits last, after cells that the rule keeps as
        # they are and cells that it fixes up.
        thetas = [*_NUMBER_EDGES, bad] if where == "row" else _NUMBER_EDGES
        rows = [(t, "intervene", 0.5, 1.0, "equal") for t in thetas]
        welfare = bad if where == "constant" else 0.25
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match="^result is not finite"):
            _write_table("compare", "json", str(out), [(rows, {})], sigma=3.0, rbar=0.2,
                         rprime=0.8, welfare=welfare, rprime_hi=0.9)
        assert not out.exists()


# Cell strategies of one type each: a table column holds cells of one type.
# Regions and verdicts reach a table as their values, which are strs.
_CELLS = (
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e9, 5e-324]),
    st.text(),
    st.integers(-(2**63), 2**64 - 1),
    st.sampled_from([member.value for member in (*PolicyRegion, *Verdict)]),
)


@st.composite
def _tables(draw):
    """A command, its full rows, the columns to declare constant (not all), and a row cut."""
    command = draw(st.sampled_from(["welfare-sweep", "compare", "simulate"]))
    columns = _COLUMNS[command]
    kinds = [draw(st.sampled_from(_CELLS)) for _ in columns]
    constant = draw(
        st.lists(st.booleans(), min_size=len(columns), max_size=len(columns))
        .filter(lambda flags: not all(flags))
    )
    first = tuple(draw(kind) for kind in kinds)
    rows = [first] + [
        tuple(cell if fixed else draw(kind) for cell, fixed, kind in zip(first, constant, kinds))
        for _ in range(draw(st.integers(0, 3)))
    ]
    constant_columns = {col for col, fixed in zip(columns, constant) if fixed}
    return command, rows, constant_columns, draw(st.integers(0, len(rows)))


_SIMULATE_ROW = (
    -0.0, 1e9, "sig{0}", 5e-324, 1.5, 0.25, 1_000_000, 20, 2**64 - 1, 0.5, 0.01, 0.0, -1.25
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=150, deadline=None)
@given(table=_tables())
@example(table=("simulate", [_SIMULATE_ROW, _SIMULATE_ROW[:5] + (0.75,) + _SIMULATE_ROW[6:]],
                {"sigma", "rbar", "mode", "r", "x_cutoff", "n_agents", "n_reps", "seed"}, 1))
@example(table=("welfare-sweep",
                [(-0.0, 1e9, 5e-324, t, "abandon", 0.0, -t) for t in (0.5, 1.5)],
                {"sigma", "rbar"}, 1))
@example(table=("compare",
                [(-0.0, 1e9, 5e-324, t, "intervene", 0.5, t, 2**63, 1.0, "equal")
                 for t in (0.5, 1.5)],
                {"sigma", "rbar", "rprime", "rprime_hi"}, 2))
def test_declared_constants_write_the_bytes_of_full_rows(fmt, table):
    command, full_rows, constant_columns, cut = table
    columns = _COLUMNS[command]
    varying = [i for i, col in enumerate(columns) if col not in constant_columns]
    rows = [tuple(row[i] for i in varying) for row in full_rows]
    constants = {col: full_rows[0][columns.index(col)] for col in constant_columns}
    whole = _written(command, [(full_rows, {})], fmt)
    assert _written(command, [(rows, {})], fmt, **constants) == whole
    # Cut into blocks, each baking the constants as its own: the same bytes.
    blocks = [(part, constants) for part in (rows[:cut], rows[cut:]) if part]
    assert _written(command, blocks, fmt) == whole


class TestOverflowingThresholds:
    # A finite sigma this large overflows the closed forms; the CSV used to
    # print nan/inf thresholds, and welfare-sweep an abandon row with attack 0,
    # all with exit 0.
    @pytest.mark.parametrize(
        "argv",
        [
            ["signaling", "--sigma", "1e308", "--rbar", "0.2", "--rprime", "0.8"],
            ["continuation", "--sigma", "1e308", "--r", "0.5"],
            ["welfare-sweep", "--sigma", "1e308", "--rbar", "0.2", "--rprime", "0.8",
             "--theta", "0:1:0.5"],
            ["simulate", "--sigma", "1e308", "--rbar", "0.2", "--r", "0.5",
             "--x-cutoff", "0", "--theta", "0.5", "--agents", "10", "--reps", "2"],
            ["continuation", "--sigma", "1e308", "--r", "0.5", "--solver", "iterated"],
        ],
    )
    def test_rejected_with_one_line_diagnostic(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "sigma = 1e+308" in captured.err

    def test_thresholds_at_a_large_finite_sigma_still_solve(self):
        eq = solve_signaling(ModelParams(sigma=1e300, r_lower=0.2), 0.8)
        assert eq.theta_upper == pytest.approx(1.55e300)
        with pytest.raises(DomainError):
            solve_signaling(ModelParams(sigma=1e308, r_lower=0.2), np.array([0.5, 0.8]))
        with pytest.raises(DomainError):
            closed_form_thresholds(ModelParams(sigma=1e308, r_lower=0.2), 0.5)


def test_python_dash_m_regimelab_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "regimelab", "continuation", "--sigma", "0.5",
         "--r", "0.25"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sigma,r,x_cutoff,theta_cutoff\n0.5,0.25,1,0.75\n"
    assert proc.stderr == ""
