#!/usr/bin/env python
"""Print which JSON key paths of a byte-gated artifact drifted from the
committed copy, as ``path: old -> new`` (the smoke gate's failure detail).
Usage: artifact_drift.py BENCH_eNN.json ..."""

from __future__ import annotations

import json
import subprocess
import sys

_ABSENT = object()


def flatten(node, prefix=""):
    """Yield ``(dotted.path[index], leaf)`` for every leaf of a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from flatten(value, f"{prefix}[{index}]")
    else:
        yield prefix, node


def _show(leaf) -> str:
    return "<absent>" if leaf is _ABSENT else repr(leaf)


def drift(old, new) -> list[str]:
    """One ``path: old -> new`` line per leaf that differs, sorted by path;
    a leaf only one side has shows ``<absent>`` on the other."""
    a, b = dict(flatten(old)), dict(flatten(new))
    paths = sorted(p for p in a.keys() | b.keys() if a.get(p, _ABSENT) != b.get(p, _ABSENT))
    return [f"{p}: {_show(a.get(p, _ABSENT))} -> {_show(b.get(p, _ABSENT))}" for p in paths]


if __name__ == "__main__":
    for artifact in sys.argv[1:]:
        show = ["git", "show", f":{artifact}"]
        committed = subprocess.run(show, capture_output=True, text=True, check=True).stdout
        with open(artifact) as handle:
            for line in drift(json.loads(committed), json.load(handle)):
                print(f"  {artifact}  {line}")
