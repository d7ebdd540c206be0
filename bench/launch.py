"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 bench/launch.py LIMIT_S STDERR_PATH CMD...

The benchmark starts every measured process through this launcher. A
child's ``ru_maxrss`` includes the resident size of the process that
forked it, so forking the CLI straight from the benchmark process,
which holds the reference matrices, would report the benchmark's
memory instead of the program's. This script imports nothing heavy.
The child is killed after LIMIT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    limit, stderr_path, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
