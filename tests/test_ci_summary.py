"""The CI summary renderer must degrade gracefully, never traceback.

``scripts/ci_summary.py`` runs as the last CI step and feeds
``$GITHUB_STEP_SUMMARY``; a single corrupt or absent benchmark artifact
must turn into a note in the rendered markdown, not an exception that
kills the step and hides every other table.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_ci_summary():
    spec = importlib.util.spec_from_file_location(
        "ci_summary", REPO_ROOT / "scripts" / "ci_summary.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("ci_summary", module)
    spec.loader.exec_module(module)
    return module


ci_summary = _load_ci_summary()


class TestGracefulDegradation:
    def test_empty_directory_renders_missing_notes(self, tmp_path):
        lines = ci_summary.summarize(tmp_path)
        text = "\n".join(lines)
        assert "# Benchmark smoke headlines" in text
        for name, _render in ci_summary.RENDERERS:
            assert f"## {name}" in text
        assert text.count("_missing — smoke stage did not produce it_") == len(
            ci_summary.RENDERERS
        )

    def test_malformed_json_becomes_note_not_traceback(self, tmp_path):
        (tmp_path / "BENCH_e17.json").write_text("{not json at all")
        lines = ci_summary.summarize(tmp_path)
        text = "\n".join(lines)
        assert "## BENCH_e17.json" in text
        assert "_unreadable — " in text

    def test_wrong_shape_becomes_note_not_traceback(self, tmp_path):
        # Valid JSON, wrong shape: rows is a string, scenarios a number.
        (tmp_path / "BENCH_e16.json").write_text(json.dumps({"rows": "oops"}))
        (tmp_path / "BENCH_e17.json").write_text(json.dumps({"scenarios": 7}))
        lines = ci_summary.summarize(tmp_path)
        text = "\n".join(lines)
        assert text.count("_unreadable — ") == 2

    def test_one_bad_artifact_does_not_hide_the_good_ones(self, tmp_path):
        (tmp_path / "BENCH_e13.json").write_text("][")
        (tmp_path / "BENCH_e17.json").write_text(
            json.dumps(
                {
                    "scenarios": [
                        {
                            "name": "regional-partition",
                            "metrics": {"availability": 0.99, "failovers": 3},
                            "band_failures": [],
                        }
                    ]
                }
            )
        )
        text = "\n".join(ci_summary.summarize(tmp_path))
        assert "regional-partition" in text  # the good table rendered
        assert "_unreadable — " in text  # the bad one became a note

    def test_e18_renderer_emits_all_three_probes(self, tmp_path):
        (tmp_path / "BENCH_e18.json").write_text(
            json.dumps(
                {
                    "hotspot": {
                        "top_drop_cell": "2122211320",
                        "top_cell_drop_share": 1.0,
                        "global_p95_inflation": 1.1,
                    },
                    "slo_burn": {
                        "hit_region": 1,
                        "max_burn": 12.5,
                        "alert_windows": 2,
                        "baseline_max_burn": 0.4,
                    },
                    "overhead": {
                        "clients": 100_000,
                        "records": 300000.0,
                        "windows_retained": 8,
                        "telemetry_transparent": True,
                    },
                }
            )
        )
        text = "\n".join(ci_summary.summarize(tmp_path))
        assert "hot-spot localization" in text
        assert "2122211320" in text
        assert "SLO burn alerting" in text
        assert "telemetry-on overhead" in text
        assert "100000 clients" in text

    def test_paper_tables_render_generically_in_natural_order(self, tmp_path):
        """E00 has no hand-written columns: whatever tables the payload holds
        render, experiments and numeric row labels in numeric order."""
        row = {"dns_names": 2, "blowup_factor": 15.686475}
        (tmp_path / "BENCH_e00.json").write_text(
            json.dumps({"E10": {"t": {"x": {"n": 1}}}, "E4": {"level_sweep": {"150": row, "30": row}}})
        )
        text = "\n".join(ci_summary.summarize(tmp_path))
        assert text.index("**E4 level_sweep**") < text.index("**E10 t**")
        assert "| | blowup_factor | dns_names |" in text
        assert text.index("| 30 | 15.6865 | 2 |") < text.index("| 150 | 15.6865 | 2 |")

    def test_paper_artifact_of_the_wrong_shape_becomes_a_note(self, tmp_path):
        (tmp_path / "BENCH_e00.json").write_text(json.dumps({"E1": "oops"}))
        text = "\n".join(ci_summary.summarize(tmp_path))
        assert "## BENCH_e00.json" in text and "_unreadable — AttributeError" in text
