"""Host-speed calibration for the benchmark, run in a fresh process by
``bench/run.py`` before the first child and after the others.

Usage::

    python3 bench/calibrate.py

It times a fixed mix of the kinds of work fedrec does, which depends on
nothing under ``src/``, and prints ``{"cal_s": <median seconds per pass>}``.
On a shared host the speed of the machine drifts by 10-30% over minutes; the
benchmark scales a run's timings by the mean of the run's calibrations, so
that a figure reads the same whether the host was fast or slow during the
run (see README.md).
"""

from __future__ import annotations

import json
import time
from statistics import median

PASSES = 5


def one_pass(np, data: dict) -> float:
    started = time.perf_counter()
    # dense similarity, as in the InfoNCE loss and ranking
    a = data["dense"]
    for _ in range(9):
        (a @ a.T).sum()
    # a fresh 64 MB table (past malloc's mmap threshold, so its pages are
    # faulted in every pass) and elementwise work, as in the eval tables
    table = np.ones((2_000_000, 4))
    np.exp(table, out=table).sum()
    del table
    # interpreter work, as in the per-client loops
    counts: dict[int, int] = {}
    for i in range(180_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    # many small numpy calls, as in the noised per-row client path
    rng = np.random.default_rng(1)
    rows = data["rows"]
    total = 0.0
    for i in range(3_000):
        v = rng.laplace(size=32)
        v += rows[i % len(rows)]
        total += float(np.dot(v, v))
    # gathers from a 32 MB array, as in embedding-row lookups
    for _ in range(3):
        data["table"][data["index"]].sum()
    return time.perf_counter() - started


def main() -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    data = {
        "dense": rng.standard_normal((600, 64)),
        "rows": rng.standard_normal((100, 32)),
        "table": rng.standard_normal(4_000_000),
    }
    data["index"] = rng.integers(0, data["table"].size, size=400_000)
    one_pass(np, data)  # warm-up
    print(json.dumps({"cal_s": median(one_pass(np, data) for _ in range(PASSES))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
