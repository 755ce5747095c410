"""Starts the benchmark's child processes and measures each one alone.

Reads one JSON request per line on stdin, {"argv": [...], "env": {...},
"log": path, "timeout": seconds}, runs it to completion with stdout and
stderr to the log, killing it at the timeout, and answers with one JSON
line: exit code, wall seconds, CPU seconds and peak resident MB of that
child alone (os.wait4).

It is a separate process because Linux carries a parent's peak RSS into
every child it forks, until that child execs: a benchmark that has just
solved a 4096-unknown dense system would otherwise report its own peak as
each CLI command's.  This process imports nothing heavy, so its peak stays
below any CLI command's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "w") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=request["env"], stdout=handle,
                                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          # ru_maxrss is in KiB on Linux
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
