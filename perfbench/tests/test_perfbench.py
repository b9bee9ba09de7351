"""perfbench checks itself: names, span arithmetic, missing targets, --compare.

One quick suite run (a subprocess, because workers patch ``repro`` classes
and must never share an interpreter with the rest of tier-1) feeds the
naming test; everything else is arithmetic on synthetic inputs.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

from perfbench import compare, trace
from perfbench.run import ROOT, load_declaration

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "record.json"
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", "--quick", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    return finished.stdout, json.loads(out.read_text())


def test_printed_names_are_the_declared_names(quick_run):
    stdout, record = quick_run
    declaration = load_declaration()
    workloads = [entry["name"] for entry in declaration["workloads"]]
    end_to_end = [entry["name"] for entry in declaration["end_to_end"]]
    per_layer = [entry["name"] for entry in declaration["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(workloads + end_to_end + per_layer)) == len(workloads + end_to_end + per_layer)
    assert list(record["workloads"]) == workloads
    printed = {line.split()[0] for line in stdout.splitlines() if line.strip()}
    for summary in record["workloads"].values():
        assert sorted(summary["end_to_end"]) == sorted(end_to_end)
        # Every measured per-layer name is declared; a declared one a
        # workload does not exercise is simply absent (printed as 0).
        assert set(summary["per_layer"]) <= set(per_layer)
        assert summary["problems"] == []
        assert summary["missing_targets"] == []
    measured = set().union(*(summary["per_layer"] for summary in record["workloads"].values()))
    assert measured == set(per_layer)
    assert set(workloads + end_to_end + per_layer) <= printed


def test_quick_run_splits_layers_as_designed(quick_run):
    _, record = quick_run
    layers = {name: summary["per_layer"] for name, summary in record["workloads"].items()}
    assert layers["fleet_cohort"]["queue.phantom_calls"] > 0
    assert layers["fleet_exact"]["queue.phantom_calls"] == 0
    assert layers["request_direct"]["queue.process_calls"] == 0
    for name, metrics in layers.items():
        assert (metrics.get("telemetry.record_calls", 0) > 0) == (name == "fleet_chaos")
        assert metrics["trace.coverage"] > 0.9


def test_self_time_on_a_synthetic_span_tree():
    # [name, start, end, parent, request]; root 0..100 holds a (10..60) and
    # c (70..90); a holds b (20..50).
    tracer = trace.Tracer()
    tracer.names = [trace.ROOT_SPAN, "x.a", "x.b"]
    tracer.spans = [[0, 0, 100, -1, 0], [1, 10, 60, 0, 1], [2, 20, 50, 1, 1], [2, 70, 90, 0, 2]]
    assert trace.self_times(tracer.spans) == [30, 20, 30, 20]
    totals = trace.totals_by_name(tracer)
    assert totals["x.b"] == (50 / 1e9, 2)
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(100 / 1e9)
    assert trace.layer_metrics(tracer, totals)["trace.coverage"] == pytest.approx(0.7)


def test_wrapped_calls_nest_and_share_a_request_id():
    class Service:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    tracer = trace.Tracer()
    Service.inner = tracer.wrap("inner", Service.inner)
    Service.outer = tracer.wrap("outer", Service.outer, starts_request=True)
    service = Service()
    assert service.outer() == 2 and service.outer() == 2 and service.inner() == 1
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names == ["outer", "inner", "inner", "outer", "inner", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, -1, 3, 3, -1]
    assert [span[4] for span in tracer.spans] == [1, 1, 1, 2, 2, 2, 0]
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_missing_trace_target_reads_null(monkeypatch):
    tracer = trace.Tracer()
    gone = ("repro.simulation.ServerQueue.no_such_method", "repro.no_such_package.Thing.run")
    monkeypatch.setattr(trace, "LAYER_SPANS", (("gone.self_s", "gone.calls", gone),))
    tracer.install(gone)
    assert tracer.missing == list(gone)
    metrics = trace.layer_metrics(tracer, trace.totals_by_name(tracer))
    assert metrics["gone.self_s"] is None and metrics["gone.calls"] is None


def _record(ops_per_s: list[float]) -> dict:
    declaration = load_declaration()

    def stats(values: list[float]) -> dict:
        ordered = sorted(values)
        return {"median": ordered[2], "q1": ordered[1], "q3": ordered[3], "min": ordered[0], "values": values}

    def values(name: str) -> list[float]:
        if name == "ops_per_s":
            return ops_per_s
        # Simulated results repeat exactly; host ones scatter a little.
        return [0.995] * 5 if name.startswith("sim_") else [1.0, 1.001, 1.002, 1.003, 1.004]

    workload = {
        "sim_digest": "d" * 64,
        "per_layer": {"sim_p50_ms": 240.0, "sim_p95_ms": 442.0, "failed_share": 0.005, "sim_digest48": 1.0},
        "end_to_end": {entry["name"]: stats(values(entry["name"])) for entry in declaration["end_to_end"]},
    }
    return {"seed": 7, "workloads": {entry["name"]: copy.deepcopy(workload) for entry in declaration["workloads"]}}


def _scaled(record: dict, workload: str, metric: str, factor: float) -> dict:
    changed = copy.deepcopy(record)
    stats = changed["workloads"][workload]["end_to_end"][metric]
    for key in ("median", "q1", "q3", "min"):
        stats[key] *= factor
    stats["values"] = [value * factor for value in stats["values"]]
    return changed


def test_compare_passes_an_identical_pair_and_flags_a_slowdown():
    base = _record([1000.0, 1004.0, 1008.0, 1012.0, 1016.0])
    same = compare.compare(base, copy.deepcopy(base))
    assert not compare.regressed(same)
    assert {row.verdict for row in same} == {"ok", "same"}
    assert len(same) == 4 * (len(compare.HOST) + len(compare.SIMULATED) + 1)

    slower = compare.compare(base, _scaled(base, "fleet_cohort", "ops_per_s", 0.8))
    assert [(row.workload, row.metric) for row in slower if row.verdict == "worse"] == [("fleet_cohort", "ops_per_s")]
    assert compare.regressed(slower)
    assert not compare.regressed(compare.compare(base, _scaled(base, "fleet_cohort", "ops_per_s", 0.95)))


def test_compare_reports_wide_spread_as_unresolved_and_sim_drift_as_changed():
    base = _record([1000.0, 1004.0, 1008.0, 1012.0, 1016.0])
    noisy = _record([500.0, 700.0, 1008.0, 1400.0, 1700.0])
    noisy["workloads"]["fleet_chaos"]["sim_digest"] = "e" * 64
    rows = compare.compare(base, noisy)
    verdicts = {(row.workload, row.metric): row.verdict for row in rows}
    assert verdicts[("fleet_exact", "ops_per_s")] == "unresolved"
    assert verdicts[("fleet_chaos", "sim_digest")] == "changed"
    assert verdicts[("fleet_exact", "sim_digest")] == "same"
    assert "unresolved" in compare.render(rows)
    # Every run of B better than every run of A needs no resolution.
    faster = _record([5000.0, 7000.0, 10080.0, 14000.0, 17000.0])
    assert {row.verdict for row in compare.compare(base, faster)} == {"ok", "same"}
    # A simulated result that moves at all is a changed model, however far
    # inside its bound; past the bound it is worse.
    for metric, after, verdict in (
        ("sim_p95_ms", 442.5, "changed"),
        ("sim_p95_ms", 441.0, "changed"),
        ("sim_p95_ms", 450.0, "worse"),
        ("failed_share", 0.0055, "changed"),
        ("failed_share", 0.0061, "worse"),
    ):
        drifted = copy.deepcopy(base)
        drifted["workloads"]["fleet_exact"]["per_layer"][metric] = after
        moved = [row for row in compare.compare(base, drifted) if row.verdict not in ("ok", "same")]
        assert [(row.workload, row.metric, row.verdict) for row in moved] == [("fleet_exact", metric, verdict)]
