"""A fixed amount of work whose wall time measures the machine's speed.

Usage::

    python3 perfbench/calibrate.py

The paper workloads run this between their timed runs and divide each
run's wall time by the calibration around it (see ``paper.py``).  On
a host shared with other tenants the speed of one CPU drifts by tens
of percent over a minute; a run and the calibrations right before and
after it see nearly the same speed, so the ratio keeps what the
program costs and loses most of what the neighbours cost.

The work imitates the reproduction CLI's mix and never changes: a
fresh interpreter that imports numpy, sorts and scans integer columns
(plan decode and pack), inflates a zlib stream (trace load), and
builds, indexes and sorts many small Python objects under the garbage
collector (the experiment drivers and telemetry replay).  It prints
``calibration ok`` and a checksum of its results.
"""

from __future__ import annotations

import zlib

import numpy as np


def work() -> int:
    rng = np.random.default_rng(12345)
    column = rng.integers(0, 1 << 20, size=400_000, dtype=np.int64)
    digest = 0
    for _ in range(2):
        order = np.argsort(column, kind="stable")
        running = np.cumsum(column[order] & 0xFFFF)
        distinct = np.unique(column >> 8)
        picked = np.where((column & 7) == 3, column, running[::-1])
        digest += int(running[-1]) ^ distinct.size ^ int(picked.sum() & 0xFFFF)

    packed = zlib.compress(column.astype(np.int32).tobytes(), 6)
    for _ in range(2):
        digest += zlib.crc32(zlib.decompress(packed))

    ops = ("ld", "st", "alu")
    rows = [
        {"pc": i * 4, "warp": i % 32, "op": ops[i % 3], "t": (i, i >> 3)}
        for i in range(60_000)
    ]
    by_warp: dict = {}
    for row in rows:
        by_warp.setdefault(row["warp"], []).append(row["pc"])
    ordered = sorted(rows, key=lambda row: (row["op"], -row["pc"]))
    digest += sum(len(pcs) for pcs in by_warp.values()) + ordered[0]["pc"]
    return digest & 0xFFFFFFFF


if __name__ == "__main__":
    print(f"calibration ok {work()}")
