"""regimelab benchmark: time real CLI invocations end to end, or trace them.

    python3 perfbench/run.py --workload sweep-dense --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing. With
``--trace 0`` this process starts one child at a time (a closed loop:
the next invocation starts only after the previous one exits). Each child
runs the console-script entry point ``regimelab.cli:main`` through
``python -c`` with ``PYTHONPATH=src`` and writes its output to ``--out``
in a scratch directory. Before each invocation a fresh interpreter imports
``regimelab.cli`` and exits, which times the set-up every invocation pays.
Invocations repeat until ``--seconds`` is used up, and medians are
reported.

With ``--trace 1`` the CLI runs in this process through ``cli.run(argv)``,
alternating untraced passes with passes under the tracer in tracing.py, and
the per-layer metrics are reported together with the tracing overhead.
Fresh interpreters under ``-X importtime`` give the import metrics.

Every output is checked against an independent recomputation (checks.py).
An invocation fails if it exits non-zero, leaves no output, or its output
check fails. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
output sha256 and size, the failure ratio and the machine. ``--workload
all`` runs every workload in turn and prefixes each metric name with the
workload name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# Console-script shim, as an installed ``regimelab`` command would run it.
ENTRY = "import sys; from regimelab.cli import main; sys.argv[0] = 'regimelab'; main()"
SETUP = "import regimelab.cli"
MIN_SAMPLES = 3
# A set-up probe that takes this long aborts the run.
SETUP_TIMEOUT_S = 30.0
# An invocation still running this long after the measuring time ends is
# killed and counted as failed, so that a hung program cannot hold the run
# much past --seconds.
OVERRUN_S = 60.0
IMPORT_PROBES = 5
END_TO_END = {
    "wall_s": "s",
    "work_per_s": "units/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REGIME_LAB_THREADS", None)
    return env


def invoke(cmd: list[str], env: dict[str, str], stderr, timeout: float) -> dict:
    """Run cmd through launch.py; return its wall_s, exit, cpu_s and maxrss_kib."""
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), str(timeout), *cmd],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
        timeout=timeout + SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def time_setup(env: dict[str, str]) -> float:
    """Wall seconds for a fresh interpreter to import regimelab.cli and exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP], env=env, cwd=ROOT,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - start


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_profile(env: dict[str, str]) -> dict[str, float]:
    """Import cost of regimelab.cli in a fresh interpreter, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    total = numpy = own = 0.0
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us, indent, name = match.groups()
        top = name.split(".")[0]
        if top == "regimelab":
            own += int(self_us)
            if len(indent) == 1:
                total += int(cumulative_us)
        elif name == "numpy":
            numpy += int(cumulative_us)
    return {
        "import.total_s": total / 1e6,
        "import.numpy_s": numpy / 1e6,
        "import.regimelab_self_s": own / 1e6,
    }


class OutputLedger:
    """Checks outputs, once per distinct content, and records their identity."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.verdicts: dict[str, str | None] = {}
        self.sizes: dict[str, int] = {}

    def judge(self, code: int, path: Path) -> str | None:
        """Return None if the invocation succeeded, else why it failed."""
        if code != 0:
            return f"exit code {code}"
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verdicts:
            self.sizes[digest] = len(data)
            try:
                self.workload.check(data.decode("utf-8"), self.seed)
                self.verdicts[digest] = None
            except (checks.CheckError, UnicodeDecodeError) as exc:
                self.verdicts[digest] = f"output check: {exc}"
        return self.verdicts[digest]

    def outputs(self) -> list[dict]:
        return [{"sha256": d, "bytes": n} for d, n in self.sizes.items()]


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def run_end_to_end(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict]:
    env = child_env()
    ledger = OutputLedger(workload, seed)
    out = scratch / f"out{workload.suffix}"
    cmd = [sys.executable, "-c", ENTRY, *workload.argv(seed), "--out", str(out)]
    time_setup(env)  # warm-up: bytecode cache and shared libraries
    walls, cpus, rss, setups, failures = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        setups.append(time_setup(env))
        out.unlink(missing_ok=True)  # a child that writes nothing must not pass
        stderr = scratch / "stderr"
        with open(stderr, "wb") as err:
            timeout = max(10.0, deadline + OVERRUN_S - time.perf_counter())
            child = invoke(cmd, env, err, timeout)
        walls.append(child["wall_s"])
        cpus.append(child["cpu_s"])
        rss.append(child["maxrss_kib"] / 1024.0)
        reason = ledger.judge(child["exit"], out)
        if reason is not None:
            failures.append(reason)
            print(f"{workload.name}: invocation failed: {reason}", file=sys.stderr)
            sys.stderr.write(stderr.read_text(encoding="utf-8", errors="replace")[-2000:])
        now = time.perf_counter()
        if len(walls) >= MIN_SAMPLES and now + (now - started) > deadline:
            break
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "work_per_s": workload.work_units / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "success_ratio": 1.0 - len(failures) / len(walls),
    }
    metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    tally = {"attempted": len(walls), "failed": len(failures), "ledger": ledger}
    tally["samples"] = {"wall_s": walls, "setup_s": setups}
    return metrics, tally


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("regimelab.cli")


def _interrupt(signum, frame):
    raise TimeoutError("invocation ran past its time limit")


def in_process(
    cli, argv: list[str], tracer: tracing.Tracer | None, timeout: float = 0.0
) -> tuple[float, int]:
    """Run cli.run(argv) in this process; return (wall seconds, exit code).

    A positive timeout interrupts a run that takes longer, as a failure.
    """
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            code = cli.run(argv)
    except Exception:  # a crash or hang in the program is a failed invocation
        traceback.print_exc()
        code = -1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, code


def run_traced(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict]:
    os.environ.pop("REGIME_LAB_THREADS", None)
    env = child_env()
    cli = load_cli()
    ledger = OutputLedger(workload, seed)
    out = scratch / f"out{workload.suffix}"
    argv = [*workload.argv(seed), "--out", str(out)]
    imports = [import_profile(env) for _ in range(IMPORT_PROBES)]
    plain, traced, layers, failures = [], [], [], []
    last = None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for tracer in (None, tracing.Tracer()):
            out.unlink(missing_ok=True)
            timeout = max(10.0, deadline + OVERRUN_S - time.perf_counter())
            wall, code = in_process(cli, argv, tracer, timeout)
            reason = ledger.judge(code, out)
            if reason is not None:
                failures.append(reason)
                print(f"{workload.name}: traced run failed: {reason}", file=sys.stderr)
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer))
                last = tracer
        now = time.perf_counter()
        if len(traced) >= MIN_SAMPLES and now + (now - started) > deadline:
            break
    metrics = {
        # The low median keeps counts whole when the number of passes is even.
        name: (statistics.median_low(run[name] for run in layers), tracing.UNITS[name])
        for name in layers[0]
        if all(name in run for run in layers)
    }
    for name in imports[0]:
        metrics[name] = (statistics.median(p[name] for p in imports), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    write_spans(workload, seed, last)
    tally = {"attempted": len(plain) + len(traced), "failed": len(failures), "ledger": ledger}
    tally["samples"] = {"untraced_s": plain, "traced_s": traced}
    return metrics, tally


def write_spans(workload, seed: int, tracer: tracing.Tracer) -> None:
    """Keep the spans and call totals of the last traced pass for inspection."""
    record = {
        "workload": workload.name,
        "seed": seed,
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total),
        "self_s": dict(tracer.self_time),
        "absent": sorted({f"{m}.{f}" for m, f, _ in tracing.TARGETS} - tracer.present),
    }
    path = WORK / f"trace-{workload.name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42, help="workload seed (mc-grid)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "regimelab" / "cli.py").is_file():
        print(f"perfbench: no regimelab source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = run_traced if args.trace else run_end_to_end
    WORK.mkdir(exist_ok=True)
    info = machine()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            metrics, tally = measure(workload, args.seed, args.seconds, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "fail_ratio": tally["failed"] / tally["attempted"],
            "outputs": tally["ledger"].outputs(),
            "samples": tally["samples"],
            "machine": info,
        }
        print(json.dumps(record))
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        result["attempted"] += tally["attempted"]
        result["failed"] += tally["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
