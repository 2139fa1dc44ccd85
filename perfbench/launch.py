"""Run one command; print its wall seconds, exit code and rusage as JSON.

    python3 perfbench/launch.py TIMEOUT_S PROGRAM [ARG ...]

On Linux an exec'd child's ru_maxrss starts from the memory high-water mark
of the process that spawned it. The benchmark process grows while it checks
outputs, so it starts each measured invocation from this small process
instead, which keeps peak_rss_mib the invocation's own. The child inherits
stdin and stderr; its stdout is discarded. A child still running after
TIMEOUT_S seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "exit": proc.returncode,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kib": usage.ru_maxrss,
            }
        )
    )


if __name__ == "__main__":
    main()
