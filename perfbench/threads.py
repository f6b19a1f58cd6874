#!/usr/bin/env python3
"""Serial sweep against KLSTAB_THREADS=2 on a 19x20 o3 R3,0 map.

Usage, from the root of a checkout:

    python3 perfbench/threads.py

Runs each setting REPEATS times, alternating the two (the variable is read at
each ``sweep`` call), and prints cells per second for each run and the median
of each side.  The benchmark's workloads all run serial; this script records
what the thread pool would give instead.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import klstab  # noqa: E402

LAMBDAS = np.linspace(0.05, 0.95, 19)
SIGMAS = np.linspace(-0.49, 0.49, 20)
REPEATS = 3


def cells_per_s(threads: str | None) -> float:
    if threads is None:
        os.environ.pop("KLSTAB_THREADS", None)
    else:
        os.environ["KLSTAB_THREADS"] = threads
    start = time.perf_counter()
    klstab.sweep(
        klstab.template("o3"),
        lambda sigma: klstab.ReconstructionSpec(3, 0, sigma),
        LAMBDAS,
        SIGMAS,
    )
    return len(LAMBDAS) * len(SIGMAS) / (time.perf_counter() - start)


def main() -> int:
    runs = {"serial": [], "KLSTAB_THREADS=2": []}
    for _ in range(REPEATS):
        runs["serial"].append(cells_per_s(None))
        runs["KLSTAB_THREADS=2"].append(cells_per_s("2"))
    for name, values in runs.items():
        shown = " ".join(f"{v:.1f}" for v in values)
        print(f"{name}: median {statistics.median(values):.1f} cells/s ({shown})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
