"""The one runner behind every experiment in ``benchmarks/`` (E00, E13–E20).

A ``bench_eNN_*.py`` module declares what is specific to its experiment in an
:class:`Experiment` record — its cells, its claims, its artifact payload, its
table titles, the cell it reruns and its ``OK:`` sentence — and hands it to
:func:`main`, which owns everything else::

    python benchmarks/bench_eNN_*.py [--smoke] [--json PATH] [--budget-seconds S]

Every experiment runs the same way: sweep (timed) → print tables → verify the
claims → rerun one cell under the same seeds and compare snapshot digests →
write the artifact → check the wall-clock budget → ``FAIL:`` lines and exit 1,
or one ``OK:`` line and exit 0.  ``--smoke`` writes the committed, byte-gated
``BENCH_eNN.json``; the full sweep writes the git-ignored
``BENCH_eNN_full.json``.  Ids, scripts and smoke budgets live in
``registry.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parents[1]

if importlib.util.find_spec("repro") is None:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _util import print_table  # noqa: E402
from registry import artifact_name  # noqa: E402

Rows = list[dict[str, object]]


@dataclass(frozen=True)
class Experiment:
    """What one experiment supplies; ``sweep`` is whatever ``run`` returned."""

    id: str
    doc: str
    run: Callable[[bool], Any]
    """``run(smoke)``: every cell of the smoke (or full) sweep."""
    tables: Callable[[Any], list[tuple[str, Rows]]]
    """``(title, rows)`` per printed table; ``_``-prefixed keys are not printed."""
    verify: Callable[[Any], list[str]]
    """The experiment's claims: one line per violated band, empty when all hold."""
    rerun: Callable[[Any], tuple[str, str]]
    """Run one cell again: ``(its digest in the sweep, the rerun's digest)``."""
    payload: Callable[[Any], dict[str, object]]
    """The artifact.  No wall-clock fields — it must reproduce byte for byte."""
    ok: Callable[[Any], str]
    """The headline sentence printed after ``OK:``."""


def digest(snapshot: object) -> str:
    """A short stable fingerprint (determinism) of whatever a cell produced:
    an engine run's full snapshot, or the rows of a cell made of service calls."""
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()[:16]


def table_rows(rows: Rows) -> Rows:
    """Rows as printed: keys carried only for the artifact (``_…``) dropped."""
    return [{key: value for key, value in row.items() if not key.startswith("_")} for row in rows]


def main(experiment: Experiment, argv: list[str] | None = None) -> int:
    smoke_name = artifact_name(experiment.id)
    full_name = artifact_name(experiment.id, smoke=False)
    parser = argparse.ArgumentParser(
        description=experiment.doc, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the reduced sweep (finishes in seconds) whose artifact is committed and CI-gated",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=f"where to write the artifact (smoke default {smoke_name} — the committed, "
        f"byte-for-byte-gated file; full-sweep default {full_name}, so exploration never clobbers it)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) if the sweep takes longer than this wall-clock budget",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sweep = experiment.run(args.smoke)
    elapsed = time.perf_counter() - started
    for title, rows in experiment.tables(sweep):
        print_table(title, table_rows(rows))

    failures = list(experiment.verify(sweep))
    reference, repeat = experiment.rerun(sweep)
    if repeat != reference:
        failures.append("rerun with fixed seed produced a different snapshot")

    path = args.json if args.json is not None else REPO_ROOT / (smoke_name if args.smoke else full_name)
    path.write_text(json.dumps(experiment.payload(sweep), indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")

    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        failures.append(
            f"sweep took {elapsed:.1f}s, over the {args.budget_seconds:.1f}s budget (hot-path regression?)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nOK: {experiment.ok(sweep)} ({elapsed:.1f}s)")
    return 0
