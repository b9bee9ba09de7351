"""Structural validation of the CI pipeline and its local counterparts.

``actionlint`` is not part of the offline toolchain, so tier-1 carries a
lightweight stand-in: the workflow must parse as YAML, trigger on pushes and
pull requests, cover Python 3.10–3.12 with pip caching, call the staged
``scripts/check.sh`` entry points, and gate/upload both BENCH artifacts.
The same file checks that the stages the workflow calls actually exist in
``check.sh`` and that the ruff configuration the lint stage enforces is
present in ``pyproject.toml``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW.is_file(), "CI workflow missing"
    return yaml.safe_load(WORKFLOW.read_text())


def triggers(workflow: dict) -> dict:
    # PyYAML parses the bare `on:` key as boolean True.
    return workflow.get("on") or workflow[True]


class TestWorkflow:
    def test_triggers_on_push_and_pull_request(self, workflow):
        on = triggers(workflow)
        assert "push" in on
        assert "pull_request" in on

    def test_three_parallel_jobs_call_the_stages(self, workflow):
        jobs = workflow["jobs"]
        assert {"lint", "tier1", "smoke"} <= set(jobs)

        def job_commands(job):
            return [step.get("run", "") for step in job["steps"]]

        assert any("check.sh --lint" in cmd for cmd in job_commands(jobs["lint"]))
        assert any("check.sh --tier1" in cmd for cmd in job_commands(jobs["tier1"]))
        assert any("check.sh --smoke" in cmd for cmd in job_commands(jobs["smoke"]))
        # The stages parallelize: no job waits on another.
        assert all("needs" not in job for job in jobs.values())

    def test_tier1_matrix_covers_310_through_312(self, workflow):
        matrix = workflow["jobs"]["tier1"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_pip_caching_is_on_for_every_job(self, workflow):
        for name, job in workflow["jobs"].items():
            setup = [
                step
                for step in job["steps"]
                if str(step.get("uses", "")).startswith("actions/setup-python")
            ]
            assert setup, f"job {name!r} does not set up python"
            with_block = setup[0]["with"]
            assert with_block.get("cache") == "pip", f"job {name!r} lacks pip caching"
            assert with_block.get("cache-dependency-path") == "requirements-dev.txt"

    def test_smoke_job_uploads_every_bench_artifact(self, workflow):
        steps = workflow["jobs"]["smoke"]["steps"]
        uploads = [s for s in steps if str(s.get("uses", "")).startswith("actions/upload-artifact")]
        assert uploads, "smoke job uploads no artifacts"
        paths = uploads[0]["with"]["path"]
        for artifact in (
            "BENCH_e13.json",
            "BENCH_e14.json",
            "BENCH_e15.json",
            "BENCH_e16.json",
            "BENCH_e17.json",
            "BENCH_e18.json",
            "BENCH_e19.json",
            "BENCH_e20.json",
        ):
            assert artifact in paths, f"smoke job does not upload {artifact}"
        assert any("ci_summary" in s.get("run", "") for s in steps), "no step-summary step"

    def test_workflow_steps_are_well_formed(self, workflow):
        for name, job in workflow["jobs"].items():
            assert "runs-on" in job, f"job {name!r} has no runner"
            for step in job["steps"]:
                assert ("run" in step) != ("uses" in step), (
                    f"job {name!r} has a step with both/neither of run and uses"
                )


class TestCheckShStages:
    def test_stage_flags_exist(self):
        script = CHECK_SH.read_text()
        for flag in ("--tier1", "--smoke", "--lint"):
            assert flag in script
        # Every artifact is byte-for-byte gated.
        for artifact in (
            "BENCH_e13.json",
            "BENCH_e14.json",
            "BENCH_e15.json",
            "BENCH_e16.json",
            "BENCH_e17.json",
            "BENCH_e18.json",
            "BENCH_e19.json",
            "BENCH_e20.json",
        ):
            assert artifact in script, f"check.sh does not gate {artifact}"

    def test_smoke_stage_runs_every_budgeted_bench(self):
        """Each experiment smoke runs under its own wall-clock budget knob.

        The two 100k-client smokes (E16, E18) default to ~3x their measured
        runtime, so a cohort-fast-path slowdown fails the stage; the rest
        only trip on an order-of-magnitude regression."""
        script = CHECK_SH.read_text()
        for bench, budget, default_seconds in (
            ("bench_e13_workload.py", "E13_SMOKE_BUDGET_SECONDS", 20),
            ("bench_e14_churn.py", "E14_SMOKE_BUDGET_SECONDS", 20),
            ("bench_e15_control.py", "E15_SMOKE_BUDGET_SECONDS", 20),
            ("bench_e16_scale.py", "E16_SMOKE_BUDGET_SECONDS", 3),
            ("bench_e17_faults.py", "E17_SMOKE_BUDGET_SECONDS", 20),
            ("bench_e18_telemetry.py", "E18_SMOKE_BUDGET_SECONDS", 6),
            ("bench_e19_autoscale.py", "E19_SMOKE_BUDGET_SECONDS", 40),
            ("bench_e20_operator.py", "E20_SMOKE_BUDGET_SECONDS", 40),
        ):
            assert bench in script, f"check.sh does not run {bench}"
            assert f'"${{{budget}:-{default_seconds}}}"' in script, f"check.sh does not budget via {budget}"

    def test_smoke_stage_runs_the_perfbench_self_check(self):
        """The host-time benchmark's output checks (equal simulated output
        across repetitions, off layers making no calls) run on every push;
        the record goes to a temp file, never into the tree."""
        script = CHECK_SH.read_text()
        assert 'python -m perfbench --quick --out "$(mktemp)"' in script
        smoke_stage = script[script.index("if $run_smoke; then") : script.index("if $run_lint; then")]
        assert "perfbench --quick" in smoke_stage, "perfbench runs outside the smoke stage"

    def test_ci_summary_renders_every_artifact(self):
        summary = (REPO_ROOT / "scripts" / "ci_summary.py").read_text()
        for artifact in (
            "BENCH_e13.json",
            "BENCH_e14.json",
            "BENCH_e15.json",
            "BENCH_e16.json",
            "BENCH_e17.json",
            "BENCH_e18.json",
            "BENCH_e19.json",
            "BENCH_e20.json",
        ):
            assert artifact in summary, f"ci_summary.py ignores {artifact}"
        # The step summary points readers at the docs layer for column
        # definitions and regeneration commands.
        assert "docs/BENCHMARKS.md" in summary

    def test_lint_stage_runs_the_docs_link_checker(self):
        script = CHECK_SH.read_text()
        assert "check_docs_links.py" in script, "lint stage skips the docs link checker"

    def test_smoke_gate_names_the_drifted_keys(self, tmp_path):
        """A failing byte-gate must say *what* drifted: check.sh hands the
        artifact to scripts/artifact_drift.py, which prints one
        ``path: old -> new`` line per changed, added or removed leaf."""
        import json
        import subprocess
        import sys

        script = CHECK_SH.read_text()
        assert 'python scripts/artifact_drift.py "$artifact"' in script
        helper = REPO_ROOT / "scripts" / "artifact_drift.py"

        def git(*args):
            subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

        committed = {"drain": [{"cell": "direct", "lag": 7.57}, {"cell": "net", "lag": 5.3}], "gone": 1}
        artifact = tmp_path / "BENCH_x.json"
        artifact.write_text(json.dumps(committed))
        git("init", "-q")
        git("add", "BENCH_x.json")
        committed["drain"][1]["lag"] = 7.67
        del committed["gone"]
        committed["new"] = True
        artifact.write_text(json.dumps(committed))
        result = subprocess.run(
            [sys.executable, str(helper), "BENCH_x.json"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.splitlines() == [
            "  BENCH_x.json  drain[1].lag: 5.3 -> 7.67",
            "  BENCH_x.json  gone: 1 -> '<absent>'",
            "  BENCH_x.json  new: '<absent>' -> True",
        ]

    def test_requirements_file_exists_for_pip_cache(self):
        requirements = (REPO_ROOT / "requirements-dev.txt").read_text()
        for package in ("pytest", "hypothesis", "numpy", "ruff"):
            assert package in requirements


class TestDocsLinks:
    """The docs link checker the lint stage runs: clean on the real tree,
    and actually capable of flagging a dead relative link."""

    def _checker(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs_links", REPO_ROOT / "scripts" / "check_docs_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_repo_docs_have_no_dead_links(self):
        checker = self._checker()
        assert checker.dead_links(REPO_ROOT) == []

    def test_checker_flags_a_dead_relative_link(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "See [architecture](docs/ARCHITECTURE.md) and [gone](docs/missing.md).\n"
        )
        (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
            "Back to the [README](../README.md); [web](https://example.com) "
            "and [anchor](#section) are skipped.\n"
        )
        checker = self._checker()
        failures = checker.dead_links(tmp_path)
        assert len(failures) == 1
        assert "docs/missing.md" in failures[0]
    def test_pyproject_configures_ruff(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in pyproject
        assert "[tool.ruff.lint]" in pyproject

    def test_fallback_lint_is_clean(self):
        """The offline stand-in for ruff must keep passing (compile +
        unused-import audit over the whole tree)."""
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_fallback.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout
