#!/usr/bin/env python
"""Wall time of E16's world on the exact per-device path.

Usage: e16_exact_wall.py CLIENTS [CLIENTS ...]

Builds ``bench_e16_scale.build_scale_scenario(clients)`` (world seed 33,
``clients // 2000`` workers, min 2, at capacity 512), runs ``WorkloadEngine``
for 3 steps at workload seed 7 with ``cohort_min_clients=10**9`` so every
device takes the exact path, and prints one line per fleet: clients, the
wall seconds of ``engine.run()`` (world building excluded), the first 16 hex
digits of the sha256 of the run's snapshot and its error count.  The digest
is what two trees must agree on before their times compare.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_e16_scale import build_scale_scenario  # noqa: E402  (finds src/ too)
from repro.workload import WorkloadConfig, WorkloadEngine  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1])
        return 2
    for clients in map(int, argv):
        engine = WorkloadEngine(
            build_scale_scenario(clients),
            WorkloadConfig(clients=clients, steps=3, seed=7, cohort_min_clients=10**9),
        )
        started = time.perf_counter()
        report = engine.run()
        wall = time.perf_counter() - started
        snapshot = json.dumps(report.snapshot(), sort_keys=True).encode()
        print(clients, f"{wall:.2f}", hashlib.sha256(snapshot).hexdigest()[:16], report.errors, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
