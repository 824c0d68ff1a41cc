"""Run one command and report its wall time and its own peak RSS.

    python3 -I -S launch.py TIMEOUT_S STDOUT STDERR -- ARGV...

Prints one JSON line: ``start`` and ``end`` (``time.perf_counter()``, the
system's monotonic clock, so the caller can match them against its own
readings), ``status`` (exit code, negative for a signal) and ``peak_rss_mb``.

``run.py`` starts every timed command through this small interpreter rather
than directly.  Linux counts the memory of the process a child was started
from in the child's peak RSS, and ``run.py`` holds numpy, the probe's table
and the imported library, which outweigh a small command.  Started from
here, a command's peak is its own, or this interpreter's few MB.
A command still running after TIMEOUT_S is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timeout, stdout, stderr, _, *argv = sys.argv[1:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"start": start, "end": end, "status": proc.returncode,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
