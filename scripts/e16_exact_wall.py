#!/usr/bin/env python
"""Wall time of E16's world on the exact per-device path.

Usage: e16_exact_wall.py CLIENTS [CLIENTS ...]

Builds ``bench_e16_scale.build_scale_scenario(clients)`` (world seed 33,
``clients // 2000`` workers, min 2, at capacity 512), runs ``WorkloadEngine``
for 3 steps at workload seed 7 with ``cohort_min_clients=10**9`` so every
device takes the exact path, and prints one line per fleet: clients, the
wall seconds of ``engine.run()`` (world building excluded), the first 16 hex
digits of the sha256 of the run's snapshot, its error count, and the
``_WorkerSchedule.place`` calls per individually processed arrival (every
queue's ``stats.arrivals``: the exact path makes no phantom ones).  The
digest is what two trees must agree on before their times compare.

The place count comes from wrapping ``_WorkerSchedule.place`` here, for the
run only; the wall time includes that wrapper's call overhead.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_e16_scale import build_scale_scenario  # noqa: E402  (finds src/ too)
from repro.simulation.queueing import _WorkerSchedule  # noqa: E402
from repro.workload import WorkloadConfig, WorkloadEngine  # noqa: E402


def counted_place_calls(run) -> tuple[object, int]:
    """``run()``'s result and how many ``_WorkerSchedule.place`` calls it made."""
    place = _WorkerSchedule.place
    calls = 0

    def counting(self, now, service_s, capacity):
        nonlocal calls
        calls += 1
        return place(self, now, service_s, capacity)

    _WorkerSchedule.place = counting
    try:
        return run(), calls
    finally:
        _WorkerSchedule.place = place


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
        report, place_calls = counted_place_calls(engine.run)
        wall = time.perf_counter() - started
        snapshot = json.dumps(report.snapshot(), sort_keys=True).encode()
        servers = engine.scenario.federation.all_servers.values()
        arrivals = sum(server.queue.stats.arrivals for server in servers if server.queue is not None)
        per_arrival = place_calls / arrivals if arrivals else 0.0
        digest = hashlib.sha256(snapshot).hexdigest()[:16]
        print(clients, f"{wall:.2f}", digest, report.errors, f"{per_arrival:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
