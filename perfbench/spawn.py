"""Start the cli workload's processes from a small process of its own.

Usage: python3 perfbench/spawn.py   (one JSON request per line on stdin)

A request is ``[argv, cwd, stdout_path, stderr_path, timeout_s]``.  The
process runs to its end (it is killed after ``timeout_s``) and the
reply is one JSON line ``[exit_code, wall_s, cpu_s, maxrss_kb]`` for
that process alone, from ``os.wait4``.

Linux charges a child the resident-set high-water mark of the process
it was started from.  Starting the cli processes here, and not from the
benchmark process (which holds numpy and the check data), keeps their
peak memory their own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
