"""Time one set-up in a fresh process: package imports plus input
generation, as the benchmark's main process does before its first timed
operation.  Prints the seconds.

    python3 perfbench/setup_child.py <workload> <seed>

Run from the root of a checkout.
"""

import sys
import tempfile
import time


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, "src")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as workdir:
        start = time.perf_counter()
        from inputs import make_inputs

        make_inputs(workload, seed, workdir)
        print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
