#!/usr/bin/env python
"""Alternated parent/change runs of one perfbench workload, and the verdict.

Usage: ab_pairs.py --parent REV [--aa] --workload W --seed N [--pairs 10] [--seconds 30]

Unpacks both sides with ``git archive`` into sibling temporary directories,
``parent/`` and ``change/``, whose paths have the same length: the parent is
``REV``, the change is this working tree as ``git add -A`` would stage it
(uncommitted edits and new files count; nothing is staged).  Then it runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` from
each tree, alternating which side goes first, and stops if the two sides'
``sim_digest``s differ (a performance change must not move a simulated
number).  Prints per side the median [q1, q3] of every end-to-end metric
``BENCHMARK.json`` declares, wins / pairs, the verdict, and one markdown row
per metric for ``docs/BENCHMARKS.md``.

``--aa`` unpacks ``REV`` on both sides: an A/A run of one revision against
itself.  Every metric should come out ``unresolved``; one that does not shows
a bias of the instrument, not of the code.  Run it before trusting a new
workload or metric.  It is not a gate: over 16 metric × workload cells a
9-of-10 streak somewhere is a likely outcome of chance alone.

The verdict is the rule for a small shared sandbox: ``gain`` only if the
change wins at least nine tenths of the pairs (ties count for neither side)
and its median beats the parent's by more than the distance between the
parent's own quartiles; ``worse`` is the mirror image; anything else — and
anything from fewer than ten pairs — is ``unresolved``.  One run at a time — two measurements sharing the cores
measure each other.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9
MIN_PAIRS = 10


class DigestMismatch(ValueError):
    """The two sides simulated different things; their times do not compare."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; all three are the value itself for one run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_digests(parent: str, change: str) -> None:
    if parent != change:
        raise DigestMismatch(f"sim_digest differs: parent {parent}, change {change}")


def verdict(parent: list[float], change: list[float], better: str) -> tuple[str, int, int]:
    """``(gain | worse | unresolved, pairs the change won, pairs it lost)``
    for one metric over paired runs; ``better`` is ``higher`` or ``lower``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0.0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0.0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - parent_median)
    needed = WIN_SHARE * len(parent)
    if len(parent) >= MIN_PAIRS and wins >= needed and gap > q3 - q1:
        return "gain", wins, losses
    if len(parent) >= MIN_PAIRS and losses >= needed and -gap > q3 - q1:
        return "worse", wins, losses
    return "unresolved", wins, losses


def markdown_row(
    workload: str, seed: int, metric: str, parent: list[float], change: list[float], better: str
) -> str:
    """One ``docs/BENCHMARKS.md`` row: both medians with quartiles, the ratio
    with its base, wins / pairs and the verdict."""
    outcome, wins, _ = verdict(parent, change, better)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    ratio = f"{c_median / p_median:.3f} × {p_median:.4g}" if p_median else "n/a"
    return (
        f"| `{workload}` | {seed} | `{metric}` | {p_median:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
        f"| {c_median:.4g} [{c_q1:.4g}, {c_q3:.4g}] | {ratio} | {wins}/{len(parent)} | {outcome} |"
    )


def unpack(rev: str, into: Path, repo: Path = ROOT) -> None:
    """The files of ``rev`` (a commit or tree of ``repo``), under ``into``."""
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def working_tree(repo: Path = ROOT) -> str:
    """The tree ``git add -A`` would stage in ``repo``, built in a throwaway
    index: uncommitted edits and untracked, unignored files are in it, and
    the repository's own index is left alone."""
    with tempfile.TemporaryDirectory(prefix="ab_pairs_index_") as scratch:
        git = ["git", "-C", str(repo)]
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        subprocess.run([*git, "add", "-A"], env=env, capture_output=True, check=True)
        written = subprocess.run([*git, "write-tree"], env=env, capture_output=True, text=True, check=True)
    return written.stdout.strip()


def unpack_sides(parent: str, root: Path, aa: bool = False, repo: Path = ROOT) -> dict[str, Path]:
    """``{"parent": root/parent, "change": root/change}``, unpacked.

    Sibling directories whose paths have the same length, so nothing that
    follows the path (its string in ``sys.path`` and in every module's
    ``__file__``) differs between the sides.  The change is ``repo``'s
    working tree, or ``parent`` again when ``aa``.
    """
    trees = {side: root / side for side in ("parent", "change")}
    unpack(parent, trees["parent"], repo)
    unpack(parent if aa else working_tree(repo), trees["change"], repo)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict[str, float]]:
    """One ``perfbench/run.py`` run from ``tree``: ``(sim_digest, metric values)``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    finished = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = finished.stdout.splitlines()
    digest = re.search(r"sim_digest ([0-9a-f]+)", finished.stdout)
    if finished.returncode != 0 or not lines or digest is None:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {finished.returncode}:\n{finished.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: the run failed its own output checks: {lines[-1]}")
    return digest.group(1), {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--aa", action="store_true", help="run --parent against itself (A/A)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    with (ROOT / "BENCHMARK.json").open() as handle:
        declared = {entry["name"]: entry["better"] for entry in json.load(handle)["end_to_end"]}

    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        trees = unpack_sides(args.parent, Path(scratch), aa=args.aa)
        for pair in range(args.pairs):
            digests = {}
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                digests[side], metrics = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(metrics)
            check_digests(digests["parent"], digests["change"])
            parent_ops, change_ops = (runs[side][-1]["ops_per_s"] for side in ("parent", "change"))
            print(f"pair {pair + 1}/{args.pairs}: ops_per_s {parent_ops:.5g} -> {change_ops:.5g}", flush=True)

    rows = []
    for metric, better in declared.items():
        parent = [run[metric] for run in runs["parent"]]
        change = [run[metric] for run in runs["change"]]
        outcome, wins, losses = verdict(parent, change, better)
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(values)
            print(f"{metric:12s} {side:6s} median {median:.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{metric:12s} change wins {wins}/{len(parent)}, loses {losses} ({better} is better): {outcome}")
        rows.append(markdown_row(args.workload, args.seed, metric, parent, change, better))
    print()
    print("| workload | seed | metric | parent [q1, q3] | change [q1, q3] | ratio × base | wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except DigestMismatch as error:
        sys.exit(f"ab_pairs: {error}")
