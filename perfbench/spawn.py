"""Run child processes for the benchmark and report their exit code,
wall time and peak resident memory.

Reads one JSON object per line on stdin: {"argv": [...], "stdout": path,
"stderr": path}.  Writes one JSON line per command: [exit code, wall
seconds, peak RSS in KiB].  Stops at end of input.

The benchmark starts its CLI processes through this small process rather
than directly: on Linux a child started with vfork, as subprocess does,
inherits its parent's peak RSS at exec, so children of the benchmark
process, which has imported the package and built its inputs, would
report the benchmark's memory rather than their own.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
