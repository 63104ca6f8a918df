"""One cold set-up of a workload, timed from outside by run.py.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED N WORKDIR

Imports curvemates, numpy and scipy, builds the seeded inputs and runs the
first item once, as a fresh benchmark process would before timing starts.
Exits 0 when the warm-up item ran without a library error.
"""
import shutil
import sys

import numpy  # noqa: F401  (set-up time includes these imports)
import scipy  # noqa: F401

import curvemates  # noqa: F401
from workloads import WORKLOADS, item_context, run_item_safely


def main() -> int:
    name, seed, n, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    workload = WORKLOADS[name]
    items = workload.make_items(seed, n)
    with item_context(workload, workdir) as ctx:
        _, error = run_item_safely(workload, items[0], n, ctx)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
