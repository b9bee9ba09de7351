"""Run one workload for a fixed time and print its metrics.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
is the interface ``BENCHMARK.json`` declares.  It repeats the workload in
fresh worker processes (:mod:`perfbench.worker`) until S seconds have
passed, checks that every repetition produced the same simulated output,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0`` (all repetitions untraced), every per-layer metric with
``--trace 1`` (repetitions alternate untraced and traced).

Every host-time value is the median over repetitions, in *calibrated*
seconds (see :mod:`perfbench.worker`): wall seconds scaled by the speed
the machine showed on a fixed probe right around the measured phase, so
that the minutes-long slow spells of a shared sandbox do not read as
changes of the program.  The factor is reported as ``host.speed`` and the
wall values are kept per repetition in the suite's run record.  The same
:func:`run_rep` / :func:`summarize` pair serves the whole-suite command
(``python -m perfbench``), so both report identical numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARATION = ROOT / "BENCHMARK.json"
OUT = ROOT / "perfbench" / "out"

CHAOS_ONLY_LAYERS = ("churn", "control", "faults", "telemetry", "autoscale", "operator")
"""Layers that may make calls on ``fleet_chaos`` only: off everywhere else
means *zero* calls, not few (the byte-transparent-when-off rule)."""

RAW_REP_KEYS = ("traced", "setup_wall_s", "timed_wall_s", "speed", "peak_rss_mb")
"""What a run record keeps of each repetition, uncalibrated."""

MIN_REPS = 3
WORKER_TIMEOUT_SECONDS = 170


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no result."""


def load_declaration() -> dict:
    with DECLARATION.open() as handle:
        return json.load(handle)


def run_rep(workload: str, seed: int, *, quick: bool = False, trace: bool = False) -> dict:
    """One repetition in a fresh interpreter; the worker's result dict."""
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if trace:
        command += ["--trace", str(OUT / f"trace_{workload}.json")]
    inherited = os.environ.get("PYTHONPATH")
    paths = [str(ROOT / "src"), str(ROOT)] + ([inherited] if inherited else [])
    finished = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_SECONDS,
    )
    lines = finished.stdout.splitlines()
    if finished.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(command)} exited {finished.returncode}:\n{finished.stderr}")
    result = json.loads(lines[-1])
    result["traced"] = trace
    return result


def timed_s(rep: dict) -> float:
    """A repetition's timed section in calibrated seconds: wall seconds
    scaled by how fast the machine ran a fixed loop around it."""
    return rep["timed_wall_s"] * rep["speed"]


def spread(values: list[float]) -> dict[str, object]:
    """Median, quartiles and minimum of one metric's per-rep values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "values": values,
    }


def summarize(reps: list[dict]) -> dict:
    """Fold one workload's repetitions into metrics and a list of problems.

    Host-time metrics come from untraced repetitions only; traced ones
    supply the self times and the overhead ratio.  Everything simulated
    (digest, latencies, counters) must be identical across all of them.
    """
    workload = reps[0]["workload"]
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    first = reps[0]
    problems = [problem for rep in reps for problem in rep["problems"]]
    for field in ("sim_digest", "sim", "counters", "ops"):
        if any(rep[field] != first[field] for rep in reps):
            problems.append(f"{field} differs between repetitions of one seed")
    for layer in CHAOS_ONLY_LAYERS if workload != "fleet_chaos" else ():
        counted = sum(value for name, value in first["counters"].items() if name.startswith(layer + "."))
        called = sum(rep["trace"]["calls_by_layer"].get(layer, 0) for rep in traced)
        if counted or called:
            problems.append(f"layer {layer} is off on {workload} yet made calls")

    end_to_end = {}
    per_layer: dict[str, float | None] = {}
    if plain:
        end_to_end = {
            "setup_s": spread([rep["setup_wall_s"] * rep["speed"] for rep in plain]),
            "ops_per_s": spread([rep["ops"] / timed_s(rep) for rep in plain]),
            "peak_rss_mb": spread([rep["peak_rss_mb"] for rep in plain]),
            "sim_ok_share": spread([1.0 - rep["sim"]["failed_share"] for rep in plain]),
        }
        per_layer["host.speed"] = statistics.median(rep["speed"] for rep in plain)
        for name in first["timings"]:
            per_layer[name] = statistics.median(rep["timings"][name] for rep in plain)
        for name in first["host_us"]:
            per_layer[name] = statistics.median(rep["host_us"][name] for rep in plain)
    per_layer.update(first["sim"])
    # The digest's first 48 bits as a number (exact in a float), so that the
    # driver's record, which holds only numbers, shows a changed simulation.
    per_layer["sim_digest48"] = float(int(first["sim_digest"][:12], 16))
    per_layer.update(first["counters"])
    if traced:
        for name in traced[0]["trace"]["layers"]:
            values = [rep["trace"]["layers"][name] for rep in traced]
            per_layer[name] = None if None in values else statistics.median(values)
        if plain:
            per_layer["trace.overhead_ratio"] = statistics.median(
                timed_s(rep) for rep in traced
            ) / statistics.median(timed_s(rep) for rep in plain)
    return {
        "workload": workload,
        "seed": first["seed"],
        "reps": len(plain),
        "traced_reps": len(traced),
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "sim_digest": first["sim_digest"],
        "missing_targets": sorted({t for rep in traced for t in rep["trace"]["missing"]}),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": problems,
        "raw_reps": [{key: rep[key] for key in RAW_REP_KEYS} for rep in reps],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    declaration = load_declaration()
    if args.workload not in [entry["name"] for entry in declaration["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    began = time.perf_counter()
    reps: list[dict] = []
    try:
        while len(reps) < MIN_REPS or time.perf_counter() - began < args.seconds:
            reps.append(run_rep(args.workload, args.seed, trace=bool(args.trace) and len(reps) % 2 == 1))
    except (WorkerFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    summary = summarize(reps)

    metrics = {}
    if args.trace:
        for entry in declaration["per_layer"]:
            # A workload that does not exercise a layer reads 0 for it; a
            # trace target that no longer exists reads null.
            value = summary["per_layer"].get(entry["name"], 0.0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in declaration["end_to_end"]:
            value = summary["end_to_end"][entry["name"]]["median"]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for problem in summary["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {summary['reps']} untraced + {summary['traced_reps']} traced reps "
        f"in {time.perf_counter() - began:.1f} s, sim_digest {summary['sim_digest'][:16]}"
    )
    print(
        json.dumps(
            {
                "correct": not summary["problems"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not summary["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
