#!/usr/bin/env python
"""Re-derive every golden and every byte-gated artifact after a deliberate
model change, and print what moved.

Usage: scripts/rebaseline.py --reason TEXT

1. Rewrites each ``tests/goldens/<module>/<case>.json`` from the ``CASES``
   table of its golden module (``tests/golden.py``), and deletes a stored
   file whose case is gone.  A case that skips on the running interpreter
   is left as stored, and named.
2. Reruns each ``benchmarks/registry.py`` smoke, which rewrites its
   ``BENCH_e??.json``.
3. Prints the reason and, for every file that differs from
   ``git show HEAD:<path>``, its moved JSON key paths as ``path: old -> new``
   (``scripts/artifact_drift.py``), then a ``removed R, changed C, added A``
   tally of those paths: the summary a model change ships in CHANGES.md
   (a pure deletion reads ``changed 0, added 0``).  Run on an unchanged
   tree it prints no file and writes nothing new.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ABSENT = "<absent>"
"""How ``artifact_drift.drift`` shows the missing side of a leaf."""


def rewrite_goldens(golden) -> tuple[list[Path], list[str]]:
    """Rewrite every case file; return the paths touched and the skipped cases."""
    import pytest

    touched, skipped = [], []
    for module_name in golden.golden_modules():
        cases = importlib.import_module(module_name).CASES
        directory = golden.GOLDENS / module_name
        for stale in sorted(directory.glob("*.json")):
            if stale.stem not in cases:
                stale.unlink()
                touched.append(stale)
        for case, build in cases.items():
            try:
                payload = build()
            except pytest.skip.Exception as skip:
                skipped.append(f"{module_name}/{case}: {skip.msg}")
                continue
            path = golden.golden_path(module_name, case)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(golden.canonical(payload))
            touched.append(path)
    return touched, skipped


def rerun_smokes() -> list[Path]:
    """Rerun every registered smoke; return the artifacts they rewrote."""
    sys.path.insert(0, str(REPO / "benchmarks"))
    import registry

    artifacts = []
    for experiment_id, (script, _budget) in registry.EXPERIMENTS.items():
        run = subprocess.run(
            [sys.executable, str(REPO / "benchmarks" / script), "--smoke"], cwd=REPO, capture_output=True, text=True
        )
        if run.returncode != 0:
            sys.exit(f"{script} --smoke failed:\n{run.stdout}{run.stderr}")
        artifacts.append(REPO / registry.artifact_name(experiment_id))
    return artifacts


def committed(path: Path) -> str | None:
    """``path``'s text at HEAD, or None if HEAD has no such file."""
    relative = path.relative_to(REPO).as_posix()
    show = subprocess.run(["git", "show", f"HEAD:{relative}"], cwd=REPO, capture_output=True, text=True)
    return show.stdout if show.returncode == 0 else None


def tally(moved: list[str]) -> str:
    """How many key paths of ``drift()``'s lines left, changed value, or
    arrived: a leaf it shows as ``<absent>`` after the arrow was removed,
    one it shows as ``<absent>`` before the arrow was added."""
    removed = sum(line.endswith(f"-> {ABSENT}") for line in moved)
    added = sum(f": {ABSENT} -> " in line for line in moved)
    return f"removed {removed}, changed {len(moved) - removed - added}, added {added}"


def file_lines(name: str, old: str | None, new: str | None, drift) -> list[str]:
    """One differing file's block of the summary: its name, each moved key
    path, and its tally.  An added or deleted file lists no paths; its
    tally counts them against an empty payload."""
    moved = drift(json.loads(old or "{}"), json.loads(new or "{}"))
    if old is None or new is None:
        return [f"{name}: {'added' if old is None else 'deleted'}", f"  {tally(moved)}"]
    return [name, *(f"  {line}" for line in moved), f"  {tally(moved)}"]


def summary(reason: str, paths: list[Path], skipped: list[str], drift) -> list[str]:
    lines = [f"reason: {reason}"]
    lines += [f"skipped, left as stored: {case}" for case in skipped]
    differ = 0
    for path in sorted(set(paths)):
        old = committed(path)
        new = path.read_text() if path.exists() else None
        if old != new:
            differ += 1
            lines += file_lines(path.relative_to(REPO).as_posix(), old, new, drift)
    lines.append(f"{differ} file(s) differ from HEAD")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reason", required=True, help="why simulated behaviour moved (printed first in the summary)")
    args = parser.parse_args()
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    import golden

    touched, skipped = rewrite_goldens(golden)
    touched += rerun_smokes()
    print("\n".join(summary(args.reason, touched, skipped, golden.drift)))


if __name__ == "__main__":
    main()
