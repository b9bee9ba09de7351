"""Run every perfbench workload, check outputs, print and record the metrics.

``python -m perfbench [--seed 7] [--quick] [--out PATH]`` runs
the declared workloads one single-threaded worker at a time, repetitions
interleaved round-robin across workloads so machine drift hits all alike,
then one traced repetition each.  It prints every metric by name with its
unit, writes the run record (commit, machine, per-rep raw values) as JSON
and exits non-zero if any output check fails.

``python -m perfbench --compare A.json B.json`` compares two run records
(see :mod:`perfbench.compare`) and exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from perfbench import compare
from perfbench.run import OUT, ROOT, load_declaration, run_rep, summarize

REPS = 5
QUICK_REPS = 1


def _commit() -> str:
    try:
        finished = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return finished.stdout.strip() if finished.returncode == 0 else "unknown"


def _number(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_summaries(declaration: dict, summaries: dict[str, dict]) -> None:
    """Every metric by name with its unit.  Host terms are what the person
    running the simulator waits for, simulated terms what the modelled
    user sees; no line mixes the two."""
    names = list(summaries)
    at_one_seed = {metric: f"{bound:.0%} at one seed, " for metric, _, _, bound in compare.HOST}
    print("\n== end to end (median over untraced reps [q1, q3], min) ==")
    for name in names:
        summary = summaries[name]
        print(f"{name}  reps={summary['reps']}  sim_digest={summary['sim_digest'][:16]}")
        for entry in declaration["end_to_end"]:
            stats = summary["end_to_end"][entry["name"]]
            kind = "simulated" if entry["name"].startswith("sim_") else "host"
            bounds = f"{at_one_seed.get(entry['name'], '')}{entry['bound']:.0%} across seeds"
            print(
                f"  {entry['name']:14s} {_number(stats['median']):>12s} {entry['unit']:6s}"
                f" [{_number(stats['q1'])}, {_number(stats['q3'])}] min {_number(stats['min'])}"
                f"  ({kind}, {entry['better']} is better, bound {bounds})"
            )
        for metric, unit, bound, kind in compare.SIMULATED:
            limit = f"+{bound}" if kind == "absolute" else f"{bound:.0%}"
            print(
                f"  {metric:14s} {_number(summary['per_layer'][metric]):>12s} {unit:6s}"
                f" identical on every rep  (simulated, lower is better, bound {limit} at one seed)"
            )
    print("\n== per layer (traced rep for *_self_s / *_calls / trace.*, public counters otherwise) ==")
    width = max(len(entry["name"]) for entry in declaration["per_layer"])
    print(f"{'metric':{width}s} {'unit':6s} " + " ".join(f"{name:>15s}" for name in names))
    for entry in declaration["per_layer"]:
        cells = " ".join(f"{_number(summaries[name]['per_layer'].get(entry['name'], 0.0)):>15s}" for name in names)
        print(f"{entry['name']:{width}s} {entry['unit']:6s} {cells}")


def run_suite(seed: int, quick: bool) -> dict:
    declaration = load_declaration()
    reps = QUICK_REPS if quick else REPS
    names = [entry["name"] for entry in declaration["workloads"]]
    began = time.perf_counter()
    results: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            results[name].append(run_rep(name, seed, quick=quick))
            print(f"rep {rep + 1}/{reps} {name}: {results[name][-1]['timed_wall_s']:.3f} s timed", flush=True)
    for name in names:
        results[name].append(run_rep(name, seed, quick=quick, trace=True))
        print(f"traced {name}: {results[name][-1]['timed_wall_s']:.3f} s timed", flush=True)
    summaries = {name: summarize(results[name]) for name in names}
    print_summaries(declaration, summaries)
    record = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "reps": reps,
        "quick": quick,
        "wall_s": time.perf_counter() - began,
        "workloads": summaries,
    }
    print(
        f"\ncommit {record['commit']}  nproc {record['nproc']}  python {record['python']}"
        f"  seed {seed}  reps {reps}  wall {record['wall_s']:.1f} s"
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (the world seed is fixed)")
    parser.add_argument("--quick", action="store_true", help="small inputs, 1 rep and the traced one: a smoke run")
    parser.add_argument("--out", type=Path, default=None, help="where to write the run record")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        base, change = (json.loads(path.read_text()) for path in args.compare)
        if base["seed"] != change["seed"]:
            parser.error(f"A ran seed {base['seed']} and B seed {change['seed']}: compare two records of one seed")
        rows = compare.compare(base, change)
        print(compare.render(rows))
        return 1 if compare.regressed(rows) else 0

    record = run_suite(args.seed, args.quick)
    out = args.out or OUT / f"run_seed{args.seed}{'_quick' if args.quick else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record written to {out}")
    failed = False
    for name, summary in record["workloads"].items():
        for problem in summary["problems"]:
            failed = True
            print(f"problem: {name}: {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
