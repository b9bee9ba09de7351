"""``scripts/perf_ledger.py``: the rows it appends from a synthetic
``python -m perfbench --out`` record written under ``tmp_path``, and the
committed ``PERF_LEDGER.jsonl`` itself: well-formed rows of declared
workloads, and no ``sim_digest`` drift between a change and its parent.

No perfbench run: a record's shape is all the script reads.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_perf_ledger():
    spec = importlib.util.spec_from_file_location("perf_ledger", REPO_ROOT / "scripts" / "perf_ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_ledger = _load_perf_ledger()
METRICS = perf_ledger.declared_metrics()
WORKLOADS = [entry["name"] for entry in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def synthetic_record(commit: str, seed: int, scale: float = 1.0, quick: bool = False) -> dict:
    """A run record as ``python -m perfbench`` writes it, numbers made up."""
    workloads = {}
    for number, name in enumerate(WORKLOADS):
        end_to_end = {}
        for k, metric in enumerate(METRICS, start=1):
            median = scale * (k + number)
            end_to_end[metric] = {"median": median, "q1": median - 0.5, "q3": median + 0.5, "min": median - 1.0}
        workloads[name] = {
            "reps": 6,
            "sim_digest": f"{number:016x}",
            "end_to_end": end_to_end,
            "per_layer": {"host.speed": 0.7 + number / 100, "queue.served": 12.0},
            "problems": [],
        }
    return {"commit": commit, "seed": seed, "reps": 5, "quick": quick, "wall_s": 90.0, "workloads": workloads}


def write(path: Path, record: dict) -> Path:
    path.write_text(json.dumps(record))
    return path


def read(ledger: Path) -> list[dict]:
    return [json.loads(line) for line in ledger.read_text().splitlines()]


class TestAppend:
    def test_one_row_per_workload_with_every_required_key(self, tmp_path):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        run = write(tmp_path / "run.json", synthetic_record("abc123", 7))
        assert perf_ledger.main(["append", str(run), "--ledger", str(ledger)]) == 0
        rows = read(ledger)
        assert [row["workload"] for row in rows] == WORKLOADS
        for number, row in enumerate(rows):
            assert set(row) == {"commit", "seed", "workload", "sim_digest", "host.speed", *METRICS}
            assert (row["commit"], row["seed"], row["sim_digest"]) == ("abc123", 7, f"{number:016x}")
            assert row["host.speed"] == 0.7 + number / 100
            for k, metric in enumerate(METRICS, start=1):
                median = k + number
                assert row[metric] == {"median": median, "q1": median - 0.5, "q3": median + 0.5}

    def test_appending_keeps_every_earlier_row_byte_for_byte(self, tmp_path):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        perf_ledger.append(write(tmp_path / "a.json", synthetic_record("parent", 7)), ledger)
        before = ledger.read_bytes()
        perf_ledger.append(write(tmp_path / "b.json", synthetic_record("parent", 7, scale=1.25)), ledger, "change")
        after = ledger.read_bytes()
        assert after.startswith(before) and after.count(b"\n") == 2 * len(WORKLOADS)
        assert [row["commit"] for row in read(ledger)] == ["parent"] * len(WORKLOADS) + ["change"] * len(WORKLOADS)

    def test_a_quick_record_or_a_missing_metric_is_refused_and_nothing_written(self, tmp_path):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        with pytest.raises(ValueError, match="smoke run"):
            perf_ledger.append(write(tmp_path / "quick.json", synthetic_record("x", 7, quick=True)), ledger)
        record = synthetic_record("x", 7)
        del record["workloads"][WORKLOADS[-1]]["end_to_end"][METRICS[0]]
        with pytest.raises(ValueError, match=f"{WORKLOADS[-1]}: the record has no {METRICS[0]}"):
            perf_ledger.append(write(tmp_path / "partial.json", record), ledger)
        assert not ledger.exists()


UNCOMMITTED = re.compile(r"uncommitted on ([0-9a-f]{7,40})")


def ledger_problems(lines: list[str]) -> list[str]:
    """What is wrong with a ledger's lines; empty when nothing is.

    Each line is a JSON row with every key :func:`perf_ledger.rows` writes,
    of a workload ``BENCHMARK.json`` declares, whose metrics hold ``q1 <=
    median <= q3``.  A row labelled ``uncommitted on <sha>`` has the
    ``sim_digest`` of the ``<sha>`` row of its seed and workload: a
    performance change must not move a simulated number.
    """
    problems, parsed = [], []
    for number, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"line {number}: not JSON ({error})")
            continue
        missing = {"commit", "seed", "workload", "sim_digest", "host.speed", *METRICS} - set(row)
        if missing:
            problems.append(f"line {number}: no {', '.join(sorted(missing))}")
            continue
        if row["workload"] not in WORKLOADS:
            problems.append(f"line {number}: workload {row['workload']!r} is not declared")
        for metric in METRICS:
            summary = row[metric]
            if not summary["q1"] <= summary["median"] <= summary["q3"]:
                problems.append(f"line {number}: {metric} quartiles out of order {summary}")
        parsed.append((number, row))
    digests = {(row["commit"], row["seed"], row["workload"]): row["sim_digest"] for _, row in parsed}
    for number, row in parsed:
        label = UNCOMMITTED.fullmatch(row["commit"])
        if label is None:
            continue
        parent = digests.get((label.group(1), row["seed"], row["workload"]))
        if parent is None:
            problems.append(f"line {number}: no {label.group(1)} row for seed {row['seed']} {row['workload']}")
        elif parent != row["sim_digest"]:
            problems.append(f"line {number}: sim_digest {row['sim_digest']} differs from its parent's {parent}")
    return problems


class TestCommittedLedger:
    def test_the_committed_ledger_is_well_formed_and_never_drifts(self):
        lines = (REPO_ROOT / "PERF_LEDGER.jsonl").read_text().splitlines()
        assert lines
        assert ledger_problems(lines) == []

    def test_each_kind_of_fault_is_reported(self, tmp_path):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        perf_ledger.append(write(tmp_path / "a.json", synthetic_record("a0eb538", 7)), ledger)
        perf_ledger.append(write(tmp_path / "b.json", synthetic_record("a0eb538", 7)), ledger, "uncommitted on a0eb538")
        lines = ledger.read_text().splitlines()
        assert ledger_problems(lines) == []

        def changed(index, edit):
            row = json.loads(lines[index])
            edit(row)
            return lines[:index] + [json.dumps(row)] + lines[index + 1 :]

        change = len(WORKLOADS)  # the first uncommitted row
        faults = {
            "not JSON": lines[:1] + ["{"],
            "no host.speed": changed(0, lambda row: row.pop("host.speed")),
            "is not declared": changed(0, lambda row: row.update(workload="nowhere")),
            "quartiles out of order": changed(0, lambda row: row[METRICS[0]].update(q1=10**9)),
            "differs from its parent's": changed(change, lambda row: row.update(sim_digest="f" * 16)),
            "no 1234567 row": changed(change, lambda row: row.update(commit="uncommitted on 1234567")),
        }
        for message, faulty in faults.items():
            found = ledger_problems(faulty)
            assert found and message in found[0], (message, found)
