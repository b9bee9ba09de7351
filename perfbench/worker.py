"""One repetition of one workload in a fresh interpreter.

``python -m perfbench.worker --workload W --seed N [--quick] [--trace PATH]``
imports the program, sets the workload up, runs its timed section once and
prints one JSON object on the last line of stdout.  A fresh process per
repetition is what makes ``setup_s`` (import included) and ``peak_rss_mb``
belong to one workload, and what a researcher running one experiment from
a shell actually pays.

With ``--trace`` the span recorders of :mod:`perfbench.trace` are
installed before set-up (so bound methods captured during construction
are the wrapped ones) and the span log is written to PATH at exit.

The sandbox this runs in shares its cores: the same code runs 10–30%
slower for minutes at a time, and CPU time slows with wall time, so no
estimator over repetitions removes it.  The worker therefore times a fixed
probe (:func:`calibrate`) between set-up and the timed section and again
after it, and reports the machine's *speed* over the repetition relative
to :data:`CALIBRATION_REFERENCE_S`.  ``run.py`` reports
host times in calibrated seconds (wall seconds × speed): seconds of a
machine on which the probe takes the reference time.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from heapq import heappop, heappush  # noqa: E402
from pathlib import Path  # noqa: E402

CALIBRATION_REFERENCE_S = 0.067
"""What one round of :func:`calibrate` takes on the reference machine (this 2-core
sandbox, CPython 3.11) when nothing else competes for the core.  It only
fixes the unit: ratios between two runs do not depend on it."""


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def weight(self) -> float:
        return self.value * 0.5 + self.key


def calibrate(rounds: int) -> float:
    """Host seconds one round of a fixed piece of interpreter work takes
    right now, averaged over ``rounds`` of them.

    A slow spell does not slow all code alike, so the probe mixes the two
    kinds the program is made of: an arithmetic loop in a working set of a
    few hundred bytes, and method calls on slotted objects held in a dict,
    a heap and a sorted list over a few MB.  Measured on this tree over 40
    interleaved repetitions per workload that spanned a 20% slow spell,
    dividing by the probe cut the scatter of a ten-rep median from 5–9% to
    1–2% (standard deviation over mean), and either half alone did worse
    on two of the four workloads.  The collector is off inside the probe
    so its cost does not depend on how large the program's heap is.
    """
    collecting = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    table: dict[int, float] = {}
    for _ in range(200 * rounds):
        total = 0.0
        for index in range(2000):
            total += index * 1.5
            table[index & 255] = total
    for _ in range(rounds):
        keys = [(index * 7919) % 100003 for index in range(40000)]
        cells = {key: _Cell(index, float(key)) for index, key in enumerate(keys)}
        heap: list[tuple[float, int]] = []
        for key in keys[:15000]:
            heappush(heap, (cells[key].weight(), key))
        while heap:
            total += heappop(heap)[0]
        keys.sort()
        total += sum(cells[key].weight() for key in keys)
    took = time.perf_counter() - began
    if collecting:
        gc.enable()
    return took / rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)

    import_began = time.perf_counter()
    from perfbench import trace, workloads

    imported = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")

    tracer = None
    if args.trace is not None:
        tracer = trace.Tracer()
        trace.install_layers(tracer)

    prepared = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    setup_wall_s = time.perf_counter() - _STARTED
    # A smoke run probes a third as long: its numbers are not measurements.
    rounds = 1 if args.quick else 3
    probe_before = calibrate(rounds)

    timed_section = prepared.run
    if tracer is not None:
        timed_section = tracer.wrap(trace.ROOT_SPAN, prepared.run)
    began = time.perf_counter()
    produced = timed_section()
    timed_wall_s = time.perf_counter() - began
    # Read before the last probe and the digests allocate; Linux reports KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = calibrate(rounds)
    outcome = prepared.collect(produced)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": prepared.ops,
        "failed": outcome.failed,
        "setup_wall_s": setup_wall_s,
        "timed_wall_s": timed_wall_s,
        "speed": 2.0 * CALIBRATION_REFERENCE_S / (probe_before + probe_after),
        "peak_rss_mb": peak_rss_mb,
        "sim": outcome.sim,
        "sim_digest": outcome.sim_digest,
        "counters": outcome.counters,
        "timings": {"import_s": imported - import_began, **prepared.timings},
        "host_us": outcome.host_us,
        "problems": outcome.problems,
    }
    if tracer is not None:
        totals = trace.totals_by_name(tracer)
        calls: dict[str, int] = {}
        for name, (_, count) in totals.items():
            layer = name.split(".")[1]
            calls[layer] = calls.get(layer, 0) + count
        result["trace"] = {
            "layers": trace.layer_metrics(tracer, totals),
            "calls_by_layer": calls,
            "missing": tracer.missing,
        }
        trace.dump(tracer, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
