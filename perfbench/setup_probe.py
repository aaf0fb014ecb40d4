"""Prints the seconds a fresh process takes to import the package and build
one iteration's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

The benchmark runs this several times per run and reports the median as
``setup_s``.
"""

import sys
import time
from pathlib import Path


def main(workload: str, seed: int) -> float:
    start = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    import rumorsim.cli  # noqa: F401
    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload].iteration(seed, 1)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
