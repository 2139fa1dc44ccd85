"""CLI behaviour: schemas, determinism, round-trips, exit codes."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    _build_parser,
    _csv_cells,
    _json_cells,
    _parse_theta_spec,
    _write_record,
    _write_table,
)
from regimelab.statics import _SWEEP_SLICE
from regimelab.verify import _CHECKS

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
        assert trace.rounds == 1 and eq.theta_cutoff == 0.5

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
    """Tables are written a block of at most _SWEEP_SLICE (1,024) rows at a time."""

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
        # 33,001 theta, 33 blocks per r'. Building the whole table before
        # writing it peaked at about 45 MiB with 6 r' against 10 MiB with 1 in
        # CSV, and 135 against 23 MiB in JSON. Block by block, what stays is
        # the theta grid and one block.
        argv = [*_SLICED_SWEEP, "--format", fmt]
        out = tmp_path / "out"
        run([*argv, "--rprime", "0.8", "--out", str(out)])
        one = self.peak([*argv, "--rprime", "0.8"], out)
        six = self.peak([*argv, "--rprime", "0.3,0.5,0.8,1,1.2,1.4"], out)
        assert six < 1.5 * one

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
              "--theta", "0:7:0.0001", "--format", "json"], 1.75 * 2**20),
            (["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8,1.0",
              "--theta", "0:7:0.0001"], 1.25 * 2**20),
        ],
        ids=["compare-json", "sweep-csv"],
    )
    def test_benchmark_tables_peak_at_a_few_blocks(self, argv, limit, tmp_path):
        # 70,001 theta: the grid array is 0.53 MiB, and the rest is about one
        # 1,024-row block's columns, cell texts and encoded text. Blocks of
        # 16,384 rows peaked at 11.2 MiB in JSON and 4.0 MiB in CSV, and of
        # 4,096 rows at 3.33 and 1.46 MiB.
        out = tmp_path / "out"
        run([*argv, "--out", str(out)])
        peak = self.peak(argv, out)
        assert peak < limit, peak

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
        assert calls == [_SWEEP_SLICE, _SWEEP_SLICE]
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
        assert calls == [_SWEEP_SLICE]
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
        assert calls == [_SWEEP_SLICE] * 3
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
        assert calls == [_SWEEP_SLICE] * 2
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
        assert received[0].count(b"\n") == 1 + _SWEEP_SLICE

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


    def test_write_error_on_a_regular_out_file_exits_2_and_removes_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # The second block's write fails as on a full disk: one line, exit 2,
        # and the partial file is removed as after any error that follows a write.
        import regimelab.cli as cli

        class FillingFile(io.StringIO):
            def __init__(self, path, *args, **kwargs):
                super().__init__()
                self.real = open(path, *args, **kwargs)

            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

            def fileno(self):
                return self.real.fileno()

            def close(self):
                self.real.close()
                super().close()

        monkeypatch.setattr(cli, "open", FillingFile, raising=False)
        out = tmp_path / "out.csv"
        assert run([*_SLICED_SWEEP, "--rprime", "0.8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert not out.exists()


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

    def test_neither_mode_rejected(self, capsys):
        assert run(["simulate", "--sigma", "0.5", "--rbar", "0.2", "--theta", "1.0"]) == 2
        assert capsys.readouterr().err == (
            "error: pass either --r (continuation) or --rprime (signaling)\n"
        )

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_welfare_mean_whose_sum_overflows_is_written(self, fmt, capsys):
        # Two replications of welfare near 1e308: their sum overflows, their
        # mean does not. It used to print inf (CSV) or exit 2 (JSON), with a
        # numpy overflow warning either way.
        code = run(["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.5",
                    "--theta", "1e308", "--agents", "100", "--reps", "2", "--format", fmt])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "csv":
            assert captured.out.splitlines()[1].split(",")[-1] == "1e+308"
        else:
            assert '"welfare_mean": 1e+308\n' in captured.out

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

    def test_check_with_no_points_is_reported(self, capsys):
        # At r_bar = 1 - 2^-53 the family is narrower than both
        # finite-difference steps: those checks compare nothing, and still
        # get their rows, passing with an empty max_error.
        code = run(["verify", "--sigma", "0.5", "--rbar", "0.9999999999999999",
                    "--format", "csv"])
        assert code == 1
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["name"] for row in rows] == [name for name, _, _ in _CHECKS]
        assert [row for row in rows if row["points"] == "0"] == [
            {"name": name, "passed": "true", "points": "0", "max_error": "",
             "tolerance": "1e-06"}
            for name in ("statics.derivative-finite-difference", "statics.threshold-sensitivity")
        ]
        assert captured.err == (
            "verify: 2 of 15 checks failed: signaling.ordering, welfare.branch-consistency\n"
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


    def test_config_that_is_not_utf8_exits_2_on_one_line(self, tmp_path, capsys):
        # A UnicodeDecodeError used to end the run in a traceback and exit 1.
        config = tmp_path / "run.cfg"
        config.write_bytes(b"sigma=\xff\n")
        assert run(["continuation", "--r", "0.25", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config file {config}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, line, message",
        [
            (["verify"], "format=xml", "format must be csv or json, got 'xml'"),
            (["continuation", "--sigma", "0.5", "--r", "0.25"], "solver=foo",
             "solver must be closed-form or iterated, got 'foo'"),
            # Every key is checked, the keys of other subcommands too.
            (["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
              "--theta", "0:1:0.05", "--agents", "1000000", "--reps", "20"], "solver=foo",
             "solver must be closed-form or iterated, got 'foo'"),
            (["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
              "--theta", "0:1:0.05", "--agents", "1000000", "--reps", "20"], "format=xml",
             "format must be csv or json, got 'xml'"),
        ],
    )
    def test_bad_choice_is_refused_before_any_work(self, argv, line, message, tmp_path,
                                                   capsys, monkeypatch):
        # simulate with format=xml in a file used to run the whole Monte
        # Carlo before it exited 2.
        import regimelab.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("work started before the config file was checked")

        for name in ("run_verify", "simulate_continuation", "closed_form_thresholds",
                     "solve_iterated_dominance"):
            monkeypatch.setattr(cli, name, never)
        config = tmp_path / "run.cfg"
        config.write_text(f"# defaults\n{line}\n", encoding="utf-8")
        assert run([*argv, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:2: {message}\n"

    def test_allowed_choice_of_another_subcommand_accepted(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma=3\nrbar=0.2\nsolver=iterated\nformat=json\n",
                          encoding="utf-8")
        assert run(["signaling", "--rprime", "0.8", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["x_prime"] == pytest.approx(2.91)

    def test_config_format_is_used_and_a_flag_wins_over_it(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma=0.5\nr=0.25\nformat=json\n", encoding="utf-8")
        assert run(["continuation", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["solver"] == "closed-form"
        assert run(["continuation", "--config", str(config), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("sigma,r,x_cutoff,theta_cutoff\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["continuation", "--sigma", "0.5", "--r", "0.25", "--format", "xml"],
             "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
            (["continuation", "--sigma", "0.5", "--r", "0.25", "--solver", "foo"],
             "argument --solver: invalid choice: 'foo' (choose from 'closed-form', 'iterated')"),
            (["signaling", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["verify", "--theta", "1"], "unrecognized arguments: --theta 1"),
            (["verify", "--sigma"], "argument --sigma: expected one argument"),
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_each_is_one_error_line(self, argv, message, capsys):
        # argparse used to print its usage block above the error line.
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [[], *([c] for c in _COLUMNS)])
    def test_help_exits_0_with_its_choices(self, command, capsys):
        assert run([*command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: regimelab")
        if command:
            assert "{csv,json}" in captured.out
        if command == ["continuation"]:
            assert "{closed-form,iterated}" in captured.out


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
        expected = np.array([lo + k * step for k in range(count + 1)])
        assert _parse_theta_spec(spec).tobytes() == expected.tobytes()

    def test_largest_grid_keeps_the_scalar_bits(self):
        # Exactly 10,000,000 points: each is lo + k*step bit for bit, around
        # k = 16,384 and at the last two points.
        grid = _parse_theta_spec("-3:996.9999:0.0001")
        assert len(grid) == 10_000_000
        for k in (0, 16_383, 16_384, 16_385, 9_999_998, 9_999_999):
            assert grid[k].tobytes() == np.float64(-3.0 + k * 0.0001).tobytes(), k

    def test_grid_is_held_once(self):
        # 700,001 points: a list of floats peaked at about 32.5 bytes a point.
        tracemalloc.start()
        try:
            grid = _parse_theta_spec("0:70:0.0001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(grid) + 64 * 2**10, peak

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


class TestGridMemory:
    """A table's traced peak grows by the grid's 8 bytes a point, not more."""

    @pytest.mark.parametrize(
        "argv", [[*_SLICED_SWEEP[:-2], "--rprime", "0.8"], _SLICED_COMPARE[:-2]],
        ids=["welfare-sweep", "compare"],
    )
    def test_peak_grows_by_the_grid_array(self, argv, tmp_path):
        # 20,001 and 120,001 theta, in CSV. A list grid grew the peak by about
        # 3.3 MiB here, the float array by about 1 MiB.
        out = tmp_path / "out"
        small = TestStreamedTables.peak([*argv, "--theta", "0:2:0.0001"], out)
        large = TestStreamedTables.peak([*argv, "--theta", "0:12:0.0001"], out)
        assert large - small < 8 * 100_000 + 2**20, (small, large)


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
        _write_table(command, fmt, None, [(list(zip(*rows)), own) for rows, own in blocks],
                     **constants)
    return buf.getvalue()


class TestJsonEncoder:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["varying", "constant"])
    def test_non_finite_cell_raises_and_writes_nothing(self, bad, where, tmp_path):
        rows, constants = _compare_table(*((bad, 0.25) if where == "varying" else (0.5, bad)))
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match="^result is not finite"):
            _write_table("compare", "json", str(out), [(list(zip(*rows)), {})], **constants)
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
                _write_table("compare", "json", None,
                             [(list(zip(*rows)), own) for rows, own in (first, second)],
                             **constants)
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
            _write_table("compare", "json", str(out), [(list(zip(*rows)), {})], sigma=3.0,
                         rbar=0.2, rprime=0.8, welfare=welfare, rprime_hi=0.9)
        assert not out.exists()


# Float columns in which integral, exponent, subnormal and signed-zero cells
# sit next to each other, so a column encoder that shifted a text from one
# cell to the next, or fixed up the wrong one, fails.
_FLOAT_COLUMNS = st.lists(
    st.sampled_from(_NUMBER_EDGES) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=2,
)


class TestColumnText:
    @settings(max_examples=300, deadline=None)
    @given(cells=_FLOAT_COLUMNS)
    @example(cells=_NUMBER_EDGES)
    def test_json_column_is_the_repr_of_each_nine_digit_rounding(self, cells):
        assert _json_cells(cells) == [repr(float(f"{v:.9g}")) for v in cells]

    @settings(max_examples=300, deadline=None)
    @given(cells=_FLOAT_COLUMNS)
    @example(cells=_NUMBER_EDGES)
    def test_csv_column_is_each_nine_digit_text(self, cells):
        assert _csv_cells(cells) == [f"{v:.9g}" for v in cells]

    @settings(max_examples=100, deadline=None)
    @given(
        cells=_FLOAT_COLUMNS,
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        at=st.integers(0, 2**16),
    )
    def test_non_finite_cell_anywhere_in_a_json_column_raises(self, cells, bad, at):
        at %= len(cells) + 1
        with pytest.raises(DomainError, match="^result is not finite"):
            _json_cells([*cells[:at], bad, *cells[at:]])


# CSV cells by kind. The strs hold %, { and } so that a template that read
# a str constant as a conversion, or went through str.format, fails.
_CSV_CELLS = {
    "float": st.sampled_from(_NUMBER_EDGES) | st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(alphabet="%{}sdg.9-ab ", max_size=6),
    "int": st.integers(-(2**63), 2**64 - 1),
}


def _csv_by_cell(command, rows) -> str:
    """The CSV table of rows by the per-cell rule: a float's .9g text, else its str."""
    lines = [",".join(_COLUMNS[command])]
    lines += [",".join(f"{c:.9g}" if isinstance(c, float) else str(c) for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


@st.composite
def _csv_blocks(draw):
    """A command, its full rows, its constants, and its varying columns cut into blocks.

    A float column of a block comes as a float64 array, as a table's blocks
    bring it, or as a tuple; other columns come as tuples.
    """
    command = draw(st.sampled_from(["welfare-sweep", "compare", "simulate"]))
    names = _COLUMNS[command]
    kinds = [draw(st.sampled_from(list(_CSV_CELLS))) for _ in names]
    fixed = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names))
                 .filter(lambda flags: not all(flags)))
    constants = {n: draw(_CSV_CELLS[k]) for n, k, f in zip(names, kinds, fixed) if f}
    varying = [(n, k) for n, k, f in zip(names, kinds, fixed) if not f]
    n_rows = draw(st.integers(1, 40))
    columns = {n: draw(st.lists(_CSV_CELLS[k], min_size=n_rows, max_size=n_rows))
               for n, k in varying}
    cuts = sorted(draw(st.sets(st.integers(1, n_rows - 1), max_size=3))) if n_rows > 1 else []
    bounds = list(zip([0, *cuts], [*cuts, n_rows]))
    as_array = draw(st.booleans())
    full_rows = [tuple(constants[n] if n in constants else columns[n][i] for n in names)
                 for i in range(n_rows)]
    return command, full_rows, constants, varying, columns, bounds, as_array


def _block_columns(varying, columns, lo, hi, as_array):
    return [np.array(columns[n][lo:hi]) if as_array and kind == "float"
            else tuple(columns[n][lo:hi]) for n, kind in varying]


def _edge_table():
    """welfare-sweep over _NUMBER_EDGES in three blocks, with % and { in a str constant and cells."""
    n = len(_NUMBER_EDGES)
    varying = [("rprime", "float"), ("theta", "float"), ("region", "str"), ("welfare", "float")]
    cells = [list(_NUMBER_EDGES), _NUMBER_EDGES[::-1], ["%s", "{}", "100%"] * (n // 3) +
             ["abandon"] * (n % 3), _NUMBER_EDGES[7:] + _NUMBER_EDGES[:7]]
    columns = {name: column for (name, _), column in zip(varying, cells)}
    constants = {"sigma": -0.0, "rbar": "%.9g{0}%%", "attack": 5e-324}
    full_rows = [(-0.0, "%.9g{0}%%", r, t, g, 5e-324, w) for r, t, g, w in zip(*cells)]
    return ("welfare-sweep", full_rows, constants, varying, columns,
            [(0, 100), (100, 101), (101, n)], True)


class TestCsvRowTemplate:
    """A CSV block is one % call over a row template; it writes what the per-cell rule writes."""

    @settings(max_examples=200, deadline=None)
    @given(table=_csv_blocks())
    @example(table=_edge_table())
    def test_each_line_is_the_per_cell_rule(self, table):
        command, full_rows, constants, varying, columns, bounds, as_array = table
        blocks = [(_block_columns(varying, columns, lo, hi, as_array), {}) for lo, hi in bounds]
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            _write_table(command, "csv", None, blocks, **constants)
        assert buf.getvalue().split("\n") == _csv_by_cell(command, full_rows).split("\n")

    @settings(max_examples=150, deadline=None)
    @given(table=_csv_blocks(), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           pick=st.integers(0, 2**16))
    def test_non_finite_cell_raises_before_its_block_is_written(self, table, bad, pick):
        command, full_rows, constants, varying, columns, bounds, as_array = table
        floats = [n for n, cell in zip(_COLUMNS[command], full_rows[0])
                  if isinstance(cell, float)]
        assume(floats)
        name = floats[pick % len(floats)]
        if name in constants:
            constants[name], first_bad = bad, 0
        else:
            row = pick % len(full_rows)
            columns[name][row] = bad
            first_bad = next(b for b, (lo, hi) in enumerate(bounds) if lo <= row < hi)
        blocks = [(_block_columns(varying, columns, lo, hi, as_array), {}) for lo, hi in bounds]
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            with pytest.raises(DomainError, match="^result is not finite"):
                _write_table(command, "csv", None, blocks, **constants)
        written = bounds[first_bad][0]
        assert buf.getvalue() == (_csv_by_cell(command, full_rows[:written]) if written else "")


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


# main() ends the process by os._exit, so nothing is flushed at teardown: an
# unflushed stream loses its text. The children run buffered, as without
# PYTHONUNBUFFERED. CPython line-buffers stderr, so its flush shows only where
# stderr is block-buffered, as a program embedding main() may make it.
_BUFFERED_STDERR = (
    "import io, sys; "
    "sys.stderr = io.TextIOWrapper(open(2, 'wb', closefd=False), encoding='utf-8'); "
    "from regimelab.cli import main; sys.argv[0] = 'regimelab'; main()"
)


def _cli_process(args, stderr_buffered=False, **kw):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    entry = ["-c", _BUFFERED_STDERR] if stderr_buffered else ["-m", "regimelab"]
    return subprocess.run([sys.executable, *entry, *args], env=env, timeout=120, check=False, **kw)


class TestExitCodes:
    def test_help_piped_to_a_file_is_complete(self, monkeypatch, tmp_path):
        path = tmp_path / "help.txt"
        with open(path, "w") as fh:
            proc = _cli_process(["--help"], stdout=fh, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        monkeypatch.setenv("COLUMNS", "80")
        assert path.read_text() == _build_parser().format_help()

    @pytest.mark.parametrize("stderr_buffered", [False, True], ids=["python-m", "buffered"])
    def test_failed_checks_exit_1_with_their_stderr_line(self, capsys, tmp_path, stderr_buffered):
        argv = ["verify", "--sigma", "1e6", "--rbar", "0.2", "--out"]
        proc = _cli_process([*argv, str(tmp_path / "main.csv")], stderr_buffered,
                            capture_output=True, text=True)
        assert run([*argv, str(tmp_path / "run.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verify: ") and err.count("\n") == 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)
        assert (tmp_path / "main.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()

    @pytest.mark.parametrize("stderr_buffered", [False, True], ids=["python-m", "buffered"])
    def test_a_domain_error_exits_2_on_one_line(self, stderr_buffered):
        proc = _cli_process(["continuation", "--sigma", "-1", "--r", "0.5"], stderr_buffered,
                            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: sigma must be positive\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_pipe_ends_the_process_silently():
    # About 840 kB of CSV, far past a pipe's buffer: the writes go on after
    # the reader, like `| head -1`, has taken one line and closed the pipe.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "regimelab", "welfare-sweep", "--sigma", "3", "--rbar", "0.2",
         "--rprime", "0.5,0.8,1.0", "--theta", "0:7:0.001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"sigma,rbar,rprime,theta,region,attack,welfare\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""


# A small run of each command. welfare-sweep writes about 300 kB, so its
# write fails while the table is written; the others fail at the last flush.
_SMALL_RUNS = {
    "continuation": ["--sigma", "0.5", "--r", "0.25"],
    "signaling": ["--sigma", "0.5", "--rbar", "0.2", "--rprime", "0.8"],
    "welfare-sweep": ["--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--theta", "0:7:0.001"],
    "compare": ["--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
                "--theta", "0:1:0.5"],
    "simulate": ["--sigma", "0.5", "--rbar", "0.2", "--r", "0.25", "--theta", "1",
                 "--agents", "10", "--reps", "2"],
    "verify": ["--sigma", "0.5", "--rbar", "0.2"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["stdout", "out"])
@pytest.mark.parametrize("command", _SMALL_RUNS)
def test_a_full_device_exits_2_on_one_line(command, target, buffered):
    # Every write to /dev/full fails with ENOSPC. It used to end in an
    # OSError traceback and exit 1, or, with stdout buffered, in "Exception
    # ignored" and exit 120.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "regimelab", command, *_SMALL_RUNS[command]]
    with open("/dev/full", "w") as full:
        if target == "out":
            argv += ["--out", "/dev/full"]
        proc = subprocess.run(argv, stdout=full if target == "stdout" else subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, timeout=120, check=False)
    name = "stdout" if target == "stdout" else "/dev/full"
    assert proc.stderr.decode() == f"error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 2
    assert target == "stdout" or proc.stdout == b""


def test_traced_blocks_count_the_rows_and_write_strs(monkeypatch, tmp_path, capfd):
    # The benchmark's tracer runs the CLI in its own process and wraps these
    # three on the module: it counts grid points as len() of
    # _parse_theta_spec's result, rows as len() of _emit_rows' first argument
    # after the command, and bytes by encoding each _write_text argument. The
    # last line it prints is its result, so a run with --out writes nothing
    # to fd 1.
    import regimelab.cli as cli

    parse, emit, write = cli._parse_theta_spec, cli._emit_rows, cli._write_text
    grids, rows, sizes = [], [], []

    def traced_parse(*args, **kwargs):
        grid = parse(*args, **kwargs)
        grids.append(len(grid))
        return grid

    def traced_emit(*args, **kwargs):
        rows.append(len(args[1]))
        return emit(*args, **kwargs)

    def traced_write(*args, **kwargs):
        sizes.append(len(args[0].encode("utf-8")))
        return write(*args, **kwargs)

    monkeypatch.setattr(cli, "_parse_theta_spec", traced_parse)
    monkeypatch.setattr(cli, "_emit_rows", traced_emit)
    monkeypatch.setattr(cli, "_write_text", traced_write)
    out = tmp_path / "sweep.csv"
    # The benchmark's sweep at twice its step: 35,001 theta for each of three
    # r', written in whole blocks and one partial last block each.
    assert run(["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8,1.0",
                "--theta", "0:7:0.0002", "--out", str(out)]) == 0
    assert grids == [35_001]
    full, rest = divmod(35_001, _SWEEP_SLICE)
    assert rows == ([_SWEEP_SLICE] * full + [rest]) * 3
    assert sum(rows) == 3 * 35_001 == len(out.read_text().splitlines()) - 1
    assert sum(sizes) == out.stat().st_size
    sys.stdout.flush()
    assert capfd.readouterr().out == ""


# Each subcommand's long options besides --format, --out and --config.
_OWN_OPTIONS = {
    "continuation": ("sigma", "rbar", "r", "solver", "tol"),
    "signaling": ("sigma", "rbar", "rprime"),
    "welfare-sweep": ("sigma", "rbar", "rprime", "theta"),
    "compare": ("sigma", "rbar", "rprime", "rprime-hi", "theta", "tol"),
    "simulate": ("sigma", "rbar", "r", "rprime", "x-cutoff", "theta", "agents", "reps", "seed"),
    "verify": ("sigma", "rbar"),
}
_ALL_OPTIONS = sorted(set().union(*_OWN_OPTIONS.values()))


@pytest.mark.parametrize(
    "command, option",
    [(cmd, opt) for cmd, own in _OWN_OPTIONS.items() for opt in _ALL_OPTIONS if opt not in own],
)
def test_option_of_another_subcommand_exits_2(command, option, capsys):
    # verify --r 1 was read as the abbreviation of --rbar.
    assert run([command, f"--{option}", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --{option} 1" in captured.err


@pytest.mark.parametrize("command", _OWN_OPTIONS)
def test_each_own_option_is_parsed(command):
    own = (*_OWN_OPTIONS[command], "format", "out", "config")
    value = {"solver": "iterated", "format": "json"}
    argv = [command, *(f"--{opt}={value.get(opt, '1')}" for opt in own)]
    ns = _build_parser().parse_args(argv)
    assert {opt: getattr(ns, opt.replace("-", "_")) for opt in own} == {
        opt: value.get(opt, "1") for opt in own
    }


def test_a_handler_set_on_the_module_is_the_one_run(monkeypatch):
    # The benchmark's tracer times each command by wrapping cli._cmd_*.
    import regimelab.cli as cli

    monkeypatch.setattr(cli, "_cmd_verify", lambda opts: 7)
    assert run(["verify"]) == 7
