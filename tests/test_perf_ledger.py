"""``scripts/perf_ledger.py``: the rows it appends from a synthetic
``python -m perfbench --out`` record written under ``tmp_path``.

No perfbench run: a record's shape is all the script reads.
"""

from __future__ import annotations

import importlib.util
import json
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
