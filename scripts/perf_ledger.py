#!/usr/bin/env python
"""Append a perfbench run record to the committed host-time ledger.

Usage: perf_ledger.py append RUN.json [--commit LABEL] [--ledger PATH]

``RUN.json`` is what ``python -m perfbench --seed N --out RUN.json`` writes.
Each of its workloads becomes one JSON line at the end of
``PERF_LEDGER.jsonl`` (at the repository root unless ``--ledger`` names
another file): the record's ``commit`` and ``seed``, the workload, its
``sim_digest``, the median ``host.speed`` of its untraced repetitions and,
for every end-to-end metric ``BENCHMARK.json`` declares, its median, q1 and
q3.  Host times are in calibrated seconds; ``host.speed`` beside them says
how fast the machine ran while they were taken, so rows from different
sessions compare only with it in view.

A record names ``git rev-parse HEAD``, which for a run of uncommitted edits
is their parent: ``--commit`` replaces it with a label for what was run,
``uncommitted on <parent>`` for a change measured before its commit, which
then adds the rows together with the tree they measured.
The ledger is append-only: nothing here rewrites, reorders or drops a row.
A ``--quick`` record is a smoke run, not a measurement, and is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "PERF_LEDGER.jsonl"


def declared_metrics() -> list[str]:
    """The end-to-end metrics ``BENCHMARK.json`` declares, in its order."""
    with (ROOT / "BENCHMARK.json").open() as handle:
        return [entry["name"] for entry in json.load(handle)["end_to_end"]]


def rows(record: dict, metrics: list[str], commit: str | None = None) -> list[dict]:
    """One ledger row per workload of a ``python -m perfbench`` run record."""
    if record.get("quick"):
        raise ValueError("a --quick record is a smoke run, not a measurement")
    built = []
    for workload, summary in record["workloads"].items():
        end_to_end = summary["end_to_end"]
        missing = [metric for metric in metrics if metric not in end_to_end]
        if missing:
            raise ValueError(f"{workload}: the record has no {', '.join(missing)}")
        built.append(
            {
                "commit": commit or record["commit"],
                "seed": record["seed"],
                "workload": workload,
                "sim_digest": summary["sim_digest"],
                "host.speed": summary["per_layer"]["host.speed"],
                **{metric: {key: end_to_end[metric][key] for key in ("median", "q1", "q3")} for metric in metrics},
            }
        )
    return built


def append(run: Path, ledger: Path, commit: str | None = None) -> int:
    """Append ``run``'s rows to ``ledger``; returns how many."""
    new = rows(json.loads(run.read_text()), declared_metrics(), commit)
    with ledger.open("a") as handle:
        handle.writelines(json.dumps(row, sort_keys=True) + "\n" for row in new)
    return len(new)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    adding = commands.add_parser("append", help="append one run record's rows")
    adding.add_argument("run", type=Path, help="a python -m perfbench --out record")
    adding.add_argument("--commit", default=None, help="label the rows with this instead of the record's commit")
    adding.add_argument("--ledger", type=Path, default=LEDGER)
    args = parser.parse_args(argv)
    try:
        added = append(args.run, args.ledger, args.commit)
    except ValueError as error:
        parser.error(str(error))
    print(f"{added} row(s) appended to {args.ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
