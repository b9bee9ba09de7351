"""The experiment harness's protocol, on a stub experiment (no simulation).

``benchmarks/harness.py`` owns what every byte-gated experiment shares:
mode selection, the verify → rerun → write → budget order, the artifact's
exact bytes and default path, and the ``FAIL:``/``OK:`` exit protocol.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import harness  # noqa: E402

PAYLOAD = {"experiment": "E99", "rows": [{"b": 1.5, "a": "x"}], "ünïcode": True}

STUB = harness.Experiment(
    id="E99",
    doc="stub",
    run=lambda smoke: {"smoke": smoke},
    tables=lambda sweep: [("E99 stub", [{"mode": "smoke" if sweep["smoke"] else "full", "_hidden": 1}])],
    verify=lambda sweep: [],
    rerun=lambda sweep: ("d1", "d1"),
    payload=lambda sweep: PAYLOAD,
    ok=lambda sweep: "stub claims hold",
)


@pytest.fixture(autouse=True)
def artifacts_in_tmp(tmp_path, monkeypatch):
    """Default artifact paths resolve against the repo root; point it away."""
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    return tmp_path


def test_clean_run_prints_tables_and_ok_and_exits_zero(capsys):
    assert harness.main(STUB, ["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "## E99 stub" in out
    assert "_hidden" not in out
    assert out.rstrip().splitlines()[-1].startswith("OK: stub claims hold (")
    assert "FAIL:" not in out


def test_smoke_and_full_modes_default_to_separate_artifacts(tmp_path):
    assert harness.main(STUB, ["--smoke"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["BENCH_e99.json"]
    assert harness.main(STUB, []) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH_e99.json", "BENCH_e99_full.json"]


def test_written_bytes_are_the_sorted_indented_dump(tmp_path):
    target = tmp_path / "elsewhere.json"
    assert harness.main(STUB, ["--smoke", "--json", str(target)]) == 0
    assert target.read_text() == json.dumps(PAYLOAD, indent=2, sort_keys=True) + "\n"
    assert not (tmp_path / "BENCH_e99.json").exists()


def test_verify_failures_exit_one_with_fail_lines(tmp_path, capsys):
    broken = dataclasses.replace(STUB, verify=lambda sweep: ["band a violated", "band b violated"])
    assert harness.main(broken, ["--smoke"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: band a violated\nFAIL: band b violated\n" in out
    assert "OK:" not in out
    # The artifact is still written, so the byte gate can show what drifted.
    assert (tmp_path / "BENCH_e99.json").is_file()


def test_rerun_digest_mismatch_exits_one(capsys):
    flaky = dataclasses.replace(STUB, rerun=lambda sweep: ("d1", "d2"))
    assert harness.main(flaky, ["--smoke"]) == 1
    assert "FAIL: rerun with fixed seed produced a different snapshot" in capsys.readouterr().out


def test_over_budget_exits_one_and_no_budget_means_no_check(capsys):
    assert harness.main(STUB, ["--smoke", "--budget-seconds", "0"]) == 1
    assert "over the 0.0s budget" in capsys.readouterr().out
    assert harness.main(STUB, ["--smoke", "--budget-seconds", "3600"]) == 0
    assert harness.main(STUB, ["--smoke"]) == 0



def test_rerun_digests_a_cell_of_rows_when_cells_are_service_calls_on_a_world(tmp_path, capsys):
    """E00's cells are service calls on a world, not engine runs: there is no
    run snapshot to fingerprint, so the rerun digests one cell's rows —
    nested tables of counts, floats and strings, in any key order."""
    assert harness.digest({"warm": {"messages": 13, "note": "x"}}) == harness.digest(
        {"warm": {"note": "x", "messages": 13}}
    )
    inherited = iter(range(13, 99))  # a cell that measures from wherever its last run left shared state

    def cell(leaky: bool) -> dict:
        return {"warm": {"messages": next(inherited) if leaky else 13, "sim_latency_ms": 26.0, "note": "x"}}

    def rows_experiment(leaky: bool) -> harness.Experiment:
        return dataclasses.replace(
            STUB,
            run=lambda smoke: {"E3": {"cache_state": cell(leaky)}},
            tables=lambda sweep: [("E3 cache_state", [{"row": "warm", **sweep["E3"]["cache_state"]["warm"]}])],
            rerun=lambda sweep: (harness.digest(sweep["E3"]["cache_state"]), harness.digest(cell(leaky))),
            payload=lambda sweep: sweep,
        )

    assert harness.main(rows_experiment(leaky=False), ["--smoke"]) == 0
    assert json.loads((tmp_path / "BENCH_e99.json").read_text())["E3"]["cache_state"]["warm"]["messages"] == 13
    assert harness.main(rows_experiment(leaky=True), ["--smoke"]) == 1
    assert "FAIL: rerun with fixed seed produced a different snapshot" in capsys.readouterr().out
