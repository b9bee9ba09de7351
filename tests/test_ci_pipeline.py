"""Structural validation of the CI pipeline and its local counterparts.

``actionlint`` is not part of the offline toolchain, so tier-1 carries a
lightweight stand-in: the workflow must parse as YAML, trigger on pushes and
pull requests, cover Python 3.10–3.12 with pip caching, call the staged
``scripts/check.sh`` entry points, and gate/upload the BENCH artifact of
every experiment in ``benchmarks/registry.py`` — the one place experiments
are enumerated; nothing here (or in ``check.sh``) names one.
The same file checks that the stages the workflow calls actually exist in
``check.sh`` and that the ruff configuration the lint stage enforces is
present in ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import golden
import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"
BENCHMARKS = REPO_ROOT / "benchmarks"


def load(path: Path):
    """Import a script by path (``benchmarks/`` on ``sys.path``, as when run)."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


registry = load(BENCHMARKS / "registry.py")
ARTIFACTS = [registry.artifact_name(experiment_id) for experiment_id in registry.EXPERIMENTS]


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
        pattern = uploads[0]["with"]["path"]
        for artifact in ARTIFACTS:
            assert fnmatch.fnmatch(artifact, pattern), f"smoke job does not upload {artifact}"
        # Full sweeps are exploratory output, never CI artifacts.
        assert not fnmatch.fnmatch(registry.artifact_name("E16", smoke=False), pattern)
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

    def test_smoke_stage_runs_every_budgeted_bench(self):
        """One loop over the registry runs each smoke under its registered
        budget and gates its artifact; the script names no experiment."""
        script = CHECK_SH.read_text()
        assert 'registered="$(python benchmarks/registry.py)"' in script
        assert 'python "benchmarks/$script" --smoke --budget-seconds "$budget"' in script
        assert 'git ls-files --error-unmatch "$artifact"' in script
        assert 'git diff --quiet -- "$artifact"' in script
        for literal in ("bench_e", "BENCH_e1", "BENCH_e2"):
            assert literal not in script, f"check.sh hard-codes an experiment ({literal}…)"

    def test_registry_lists_what_check_sh_reads(self):
        listing = subprocess.run(
            [sys.executable, str(BENCHMARKS / "registry.py")], capture_output=True, text=True, check=True
        )
        assert [line.split() for line in listing.stdout.splitlines()] == [
            [experiment_id, script, str(budget), registry.artifact_name(experiment_id)]
            for experiment_id, (script, budget) in registry.EXPERIMENTS.items()
        ]

    def test_every_registered_script_exposes_its_experiment(self):
        for experiment_id, (script, budget) in registry.EXPERIMENTS.items():
            path = BENCHMARKS / script
            assert path.is_file(), f"{experiment_id}: {script} does not exist"
            experiment = load(path).EXPERIMENT
            assert experiment.id == experiment_id
            assert budget >= 2, f"{experiment_id}: budget under the 2 s floor"

    def test_one_toolchain_no_pytest_under_benchmarks(self):
        """An experiment runs one way — ``harness.main`` on a registry row.
        A ``test_*`` in ``benchmarks/`` is a second way that nothing collects
        (``bench_*.py`` does not match pytest's pattern), so none may exist."""
        second_way = re.compile(
            r"^\s*(import|from) pytest|def test_|def \w+\(benchmark\b|benchmark\.(extra_info|pedantic)", re.M
        )
        for path in sorted(BENCHMARKS.glob("*.py")):
            found = second_way.search(path.read_text())
            assert found is None, f"{path.name}: {found.group(0)!r}"
        assert not (BENCHMARKS / "conftest.py").exists()
        requirements = (REPO_ROOT / "requirements-dev.txt").read_text().splitlines()
        assert not [line for line in requirements if "benchmark" in line and not line.startswith("#")]
        assert ".benchmarks" not in (REPO_ROOT / ".gitignore").read_text()

    def test_every_bench_module_is_reachable_from_a_registry_row(self):
        """Registered scripts, plus the ``bench_*`` providers they import."""
        reachable = {script for script, _budget in registry.EXPERIMENTS.values()}
        for script in sorted(reachable):
            imported = re.findall(r"^import (bench_\w+)", (BENCHMARKS / script).read_text(), re.M)
            reachable.update(f"{name}.py" for name in imported)
        assert sorted(path.name for path in BENCHMARKS.glob("bench_*.py")) == sorted(reachable)

    def test_every_artifact_is_tracked_by_git(self):
        """The byte gate compares against the committed copy."""
        tracked = subprocess.run(
            ["git", "ls-files", "--", *ARTIFACTS], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        )
        assert tracked.stdout.split() == sorted(ARTIFACTS)

    def test_smoke_stage_runs_the_perfbench_self_check(self):
        """The host-time benchmark's output checks (equal simulated output
        across repetitions, off layers making no calls) run on every push;
        the record goes to a temp file, never into the tree."""
        script = CHECK_SH.read_text()
        assert 'python -m perfbench --quick --out "$(mktemp)"' in script
        smoke_stage = script[script.index("if $run_smoke; then") : script.index("if $run_lint; then")]
        assert "perfbench --quick" in smoke_stage, "perfbench runs outside the smoke stage"

    def test_ci_summary_renders_every_artifact(self):
        summary = load(REPO_ROOT / "scripts" / "ci_summary.py")
        assert sorted(name for name, _render in summary.RENDERERS) == sorted(ARTIFACTS)
        # The step summary points readers at the docs layer for column
        # definitions and regeneration commands.
        assert "docs/BENCHMARKS.md" in "\n".join(summary.summarize(REPO_ROOT))

    def test_lint_stage_runs_the_docs_link_checker(self):
        script = CHECK_SH.read_text()
        assert "check_docs_links.py" in script, "lint stage skips the docs link checker"

    def test_lint_stage_runs_the_set_order_sum_checker_without_ruff_too(self):
        """``lint_fallback.py`` is skipped where ruff is installed (CI), so
        the checker runs beside it, not inside it."""
        script = CHECK_SH.read_text()
        lint_stage = script[script.index("if $run_lint; then") :]
        end_of_ruff_branch = lint_stage.index("python scripts/lint_fallback.py\n  fi\n")
        assert lint_stage.index("python scripts/check_set_order_sums.py") > end_of_ruff_branch

    def test_lint_stage_runs_the_memo_bound_checker_without_ruff_too(self):
        script = CHECK_SH.read_text()
        lint_stage = script[script.index("if $run_lint; then") :]
        end_of_ruff_branch = lint_stage.index("python scripts/lint_fallback.py\n  fi\n")
        assert lint_stage.index("python scripts/check_unbounded_memos.py") > end_of_ruff_branch

    def test_lint_stage_runs_the_reachability_checker_without_ruff_too(self):
        script = CHECK_SH.read_text()
        lint_stage = script[script.index("if $run_lint; then") :]
        end_of_ruff_branch = lint_stage.index("python scripts/lint_fallback.py\n  fi\n")
        assert lint_stage.index("python scripts/check_reachable.py") > end_of_ruff_branch

    def test_nothing_pins_the_hash_seed(self):
        """The byte gate and the tier-1 goldens catch a result that follows
        set iteration order only because every CI process draws a fresh
        string-hash seed; pinning it would hide such a result for good."""
        for path in (CHECK_SH, WORKFLOW):
            assert "PYTHONHASHSEED" not in path.read_text(), f"{path.name} sets PYTHONHASHSEED"

    def test_smoke_gate_names_the_drifted_keys(self, tmp_path):
        """A failing byte-gate must say *what* drifted: check.sh hands the
        artifact to scripts/artifact_drift.py, which prints one
        ``path: old -> new`` line per changed, added or removed leaf."""
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
            "  BENCH_x.json  gone: 1 -> <absent>",
            "  BENCH_x.json  new: <absent> -> True",
        ]

    def test_requirements_file_exists_for_pip_cache(self):
        requirements = (REPO_ROOT / "requirements-dev.txt").read_text()
        for package in ("pytest", "hypothesis", "numpy", "ruff"):
            assert package in requirements


class TestGoldens:
    """One golden mechanism (``tests/golden.py``): payloads stored as JSON
    under ``tests/goldens/``, one file per ``CASES`` key, re-derived only by
    ``scripts/rebaseline.py --reason TEXT``; no digest literal in test code."""

    def test_no_test_module_holds_a_digest_literal(self):
        literal = re.compile(r"['\"][0-9a-f]{64}['\"]")
        found = [
            f"{path.relative_to(REPO_ROOT)}:{number}"
            for path in sorted((REPO_ROOT / "tests").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if literal.search(line)
        ]
        assert found == [], "store the payload as a golden case under tests/goldens/ instead"

    def test_every_golden_file_has_a_case_and_every_case_a_file(self):
        modules = golden.golden_modules()
        assert modules, "no test module declares a CASES table"
        declared = {f"{module}/{case}.json" for module in modules for case in importlib.import_module(module).CASES}
        stored = {path.relative_to(golden.GOLDENS).as_posix() for path in golden.GOLDENS.rglob("*") if path.is_file()}
        assert sorted(stored - declared) == [], "orphan golden files (no CASES key)"
        assert sorted(declared - stored) == [], "CASES keys with no golden file"

    def test_rebaseline_refuses_to_run_without_a_reason(self):
        def written() -> dict[Path, int]:
            paths = [*golden.GOLDENS.rglob("*"), *(REPO_ROOT / artifact for artifact in ARTIFACTS)]
            return {path: path.stat().st_mtime_ns for path in paths}

        before = written()
        run = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "rebaseline.py")],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert run.returncode != 0
        assert "--reason" in run.stderr
        assert written() == before

    def test_rebaseline_tallies_each_file(self):
        rebaseline = load(REPO_ROOT / "scripts" / "rebaseline.py")
        stored = {"kept": 1, "moved": 2.0, "gone": {"a": 3, "b": 4}}
        pruned = {"kept": 1, "moved": 2.0}
        reshaped = {"kept": 1, "moved": 2.5, "new": None}

        def block(old, new):
            texts = (None if side is None else json.dumps(side) for side in (old, new))
            return rebaseline.file_lines("g.json", *texts, golden.drift)

        assert block(stored, pruned) == [
            "g.json",
            "  gone.a: 3 -> <absent>",
            "  gone.b: 4 -> <absent>",
            "  removed 2, changed 0, added 0",
        ]
        assert block(stored, reshaped)[-1] == "  removed 2, changed 1, added 1"
        assert block(None, pruned) == ["g.json: added", "  removed 0, changed 0, added 2"]
        assert block(pruned, None) == ["g.json: deleted", "  removed 2, changed 0, added 0"]


class TestDocsLinks:
    """The docs link checker the lint stage runs: clean on the real tree,
    and actually capable of flagging a dead relative link."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_docs_links.py")

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

    def test_runtime_warnings_fail_tier1(self):
        """Silent NaN arithmetic in a numpy kernel must be a test failure."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        options = pyproject.split("[tool.pytest.ini_options]", 1)[1].split("\n[", 1)[0]
        assert 'filterwarnings = ["error::RuntimeWarning"]' in options

    def test_fallback_lint_is_clean(self):
        """The offline stand-in for ruff must keep passing (compile +
        unused-import audit over the whole tree)."""
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_fallback.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout


class TestSetOrderSums:
    """The hash-order sum checker the lint stage runs: clean on the real
    tree, and flags the shapes beacon localization's bug had."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_set_order_sums.py")

    def test_repo_sources_are_clean(self):
        assert self._checker().findings(REPO_ROOT) == []

    def test_checker_flags_sums_over_sets_only(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "sums.py").write_text(
            "import math\n"
            "def distance(observed, reference):\n"
            "    common = set(observed) & set(reference)\n"
            "    unrelated = [1.0]\n"
            "    return sum((observed[b] - reference[b]) ** 2 for b in common)\n"  # line 5
            "def inline(a, b):\n"
            "    return math.fsum([a[k] for k in frozenset(a) - {1}])\n"  # line 7
            "def display(weights):\n"
            "    return sum(weights[k] for k in {k for k in weights})\n"  # line 9
            "def fine(observed, reference, common):\n"
            "    ordered = sorted(set(observed) & set(reference))\n"
            "    total = sum(observed[b] for b in ordered) + sum(reference[b] for b in common)\n"
            "    return total + sum(x for x in observed.values()) + len(set(observed))\n"
        )
        failures = self._checker().findings(tmp_path)
        assert [failure.split(": ")[0] for failure in failures] == [
            "src/repro/sums.py:5",
            "src/repro/sums.py:7",
            "src/repro/sums.py:9",
        ]

    def test_checker_lets_integer_counts_over_sets_pass(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "counts.py").write_text(
            "def names(walks):\n"
            "    distinct = set(walks)\n"
            "    total = sum(len(walk) for walk in distinct)\n"
            "    return total + sum(1 for walk in set(walks) if walk)\n"
            "def hits(walks, known):\n"
            "    return sum(walk in known for walk in frozenset(walks))\n"
            "def lengths(walks):\n"
            "    return sum(len(walk) * 0.5 for walk in set(walks))\n"  # line 8
        )
        failures = self._checker().findings(tmp_path)
        assert [failure.split(": ")[0] for failure in failures] == ["src/repro/counts.py:8"]

    def test_checker_flags_reassociating_reductions_in_the_simulation_layer(self, tmp_path):
        """The queue's batch waits feed byte-gated stats: they must fold left
        to right, which np.cumsum does and np.sum (pairwise) does not."""
        source = (
            "import numpy as np\n"
            "def waits(terms, total):\n"
            "    return float(np.cumsum(np.concatenate(([total], terms)))[-1])\n"
            "def pairwise(terms, total):\n"
            "    return total + np.sum(terms)\n"  # line 5
        )
        for layer in ("simulation", "services"):
            package = tmp_path / layer / "src" / "repro" / layer
            package.mkdir(parents=True)
            (package / "fold.py").write_text(source)
        flagged = [failure.split(": ")[0] for failure in self._checker().findings(tmp_path / "simulation")]
        assert flagged == ["src/repro/simulation/fold.py:5"]
        assert self._checker().findings(tmp_path / "services") == []


class TestMemoBounds:
    """The memo bound checker the lint stage runs: clean on the real tree,
    and one failing fixture per shape an unbounded memo takes."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_unbounded_memos.py")

    def _findings(self, tmp_path, source: str) -> list[str]:
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "memos.py").write_text(source)
        return [failure.split(": ")[0] for failure in self._checker().findings(tmp_path)]

    def test_repo_sources_are_clean(self):
        assert self._checker().findings(REPO_ROOT) == []

    def test_checker_flags_functools_cache(self, tmp_path):
        source = (
            "import functools\n"
            "from functools import cache\n"
            "@cache\n"  # line 3
            "def bounds(tile): ...\n"
            "class Index:\n"
            "    @functools.cache\n"  # line 6
            "    def lookup(self, key): ...\n"
            "@cache\n"
            "def table(): ...\n"  # zero arguments: one value at most
        )
        assert self._findings(tmp_path, source) == ["src/repro/memos.py:3", "src/repro/memos.py:6"]

    def test_checker_flags_lru_cache_without_a_stated_bound(self, tmp_path):
        source = (
            "import functools\n"
            "from functools import lru_cache\n"
            "LIMIT = 64\n"
            "@lru_cache\n"  # line 4
            "def bare(x): ...\n"
            "@lru_cache()\n"  # line 6
            "def called(x): ...\n"
            "@functools.lru_cache(maxsize=None)\n"  # line 8
            "def unbounded(x): ...\n"
            "@lru_cache(None)\n"  # line 10
            "def positional(*xs): ...\n"
            "@lru_cache(maxsize=1024)\n"
            "def literal(x): ...\n"
            "@lru_cache(maxsize=LIMIT)\n"
            "def named(x): ...\n"
            "@lru_cache(maxsize=None)\n"
            "def table(): ...\n"
        )
        assert self._findings(tmp_path, source) == [f"src/repro/memos.py:{line}" for line in (4, 6, 8, 10)]

    def test_checker_flags_lru_cache_objects_without_a_stated_bound(self, tmp_path):
        source = (
            "import sys\n"
            "from repro.simulation.lru import LruCache\n"
            "LIMIT = 64\n"
            "_default = LruCache()\n"  # line 4
            "_none = LruCache(max_entries=None)\n"  # line 5
            "_computed = LruCache(max_entries=2 ** 40)\n"  # line 6
            "_huge = LruCache(float('inf'))\n"  # line 7
            "_literal = LruCache(max_entries=32)\n"
            "_named = LruCache(LIMIT)\n"
            "class Cache:\n"
            "    def __post_init__(self):\n"
            "        self._lru = LruCache(max_entries=self.max_entries)\n"
        )
        assert self._findings(tmp_path, source) == [f"src/repro/memos.py:{line}" for line in (4, 5, 6, 7)]

    def test_every_memo_site_in_the_repo_is_in_the_table(self):
        checker = self._checker()
        assert checker.unlisted(REPO_ROOT) == []
        names = {name for _, _, site in checker.memo_sites(REPO_ROOT) for name in site}
        # The rule has something to check: both shapes are in the tree.
        assert {"_block", "_composite_memo"} <= names

    def test_checker_flags_a_module_level_weak_key_dictionary(self, tmp_path):
        source = (
            "import weakref\n"
            "from weakref import WeakKeyDictionary\n"
            "_per_map: 'WeakKeyDictionary[object, int]' = WeakKeyDictionary()\n"  # line 3
            "_per_graph = weakref.WeakKeyDictionary()\n"  # line 4
            "class Cache:\n"
            "    def local(self):\n"
            "        scratch = WeakKeyDictionary()\n"  # not module level
        )
        assert self._findings(tmp_path, source) == ["src/repro/memos.py:3", "src/repro/memos.py:4"]
        assert "derive it on its source" in self._checker().findings(tmp_path)[0]

    def test_checker_flags_a_memo_the_table_does_not_name(self, tmp_path):
        source = (
            "from functools import lru_cache\n"
            "from repro.simulation.lru import LruCache\n"
            "_listed_memo = LruCache(max_entries=32)\n"
            "_new_memo = LruCache(max_entries=32)\n"  # line 4
            "_after_table = LruCache(max_entries=32)\n"  # line 5
            "@lru_cache(maxsize=64)\n"
            "def listed(x): ...\n"
            "@lru_cache(maxsize=64)\n"
            "def unlisted(x): ...\n"  # line 9
            "@lru_cache(maxsize=None)\n"
            "def one_value(): ...\n"
            "class Cache:\n"
            "    def __post_init__(self):\n"
            "        self._lru = LruCache(max_entries=self.max_entries)\n"  # a model cache
            "        self._answers = self.table[self] = LruCache(max_entries=8)\n"  # line 15
        )
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "ARCHITECTURE.md").write_text(
            "Not a row: `_new_memo`.\n\n"
            "| memo | key | bound | invalidated by |\n"
            "|---|---|---|---|\n"
            "| `memos._listed_memo` | x | 32 LRU | pure |\n"
            "| `memos.listed`, `other` | `unlisted` | `lru_cache(64)` | pure |\n"
            "\n"
            "| `_after_table` | after the table | | |\n"
        )
        assert self._findings(tmp_path, source) == []
        found = [failure.split(": ")[0] for failure in self._checker().unlisted(tmp_path)]
        assert found == [f"src/repro/memos.py:{line}" for line in (4, 5, 9, 15)]
        (docs / "ARCHITECTURE.md").write_text("no table here\n")
        with pytest.raises(SystemExit, match="no memo table"):
            self._checker().unlisted(tmp_path)


class TestReachability:
    """The module reachability checker the lint stage runs: clean on the real
    tree, and a package ``__init__``'s re-export does not count as a use."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_reachable.py")

    def test_repo_sources_are_clean(self):
        assert self._checker().findings(REPO_ROOT) == []

    def test_a_module_only_its_package_init_imports_is_flagged(self, tmp_path):
        package = tmp_path / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text(
            "from repro.pkg.orphan import Orphan\n"
            "from repro.pkg.live import Live\n"
            "from repro.pkg.sibling import Sibling\n"
        )
        (package / "orphan.py").write_text("class Orphan: ...\n")
        (package / "live.py").write_text("class Live: ...\n")
        (package / "sibling.py").write_text(
            "class Sibling:\n"
            "    def run(self):\n"
            "        from .live import Live\n"  # a relative import inside a function counts
            "        return Live()\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text("from repro.pkg import Sibling\n")
        checker = self._checker()
        assert checker.unreached(tmp_path) == ["src/repro/pkg/orphan.py"]
        assert [failure.split(": ")[0] for failure in checker.findings(tmp_path)] == ["src/repro/pkg/orphan.py"]

    @staticmethod
    def _tree(root: Path, files: dict[str, str]) -> Path:
        for relative, text in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def test_from_import_follows_re_exports_through_nested_inits(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "from repro.pkg import Thing\n",
                "src/repro/pkg/__init__.py": "from repro.pkg.deep import Thing\nfrom repro.pkg.other import Other\n",
                "src/repro/pkg/deep.py": "class Thing: ...\n",
                "src/repro/pkg/other.py": "class Other: ...\n",
                "scripts/tool.py": "from repro import Thing\n",
            },
        )
        assert self._checker().unreached(root) == ["src/repro/pkg/other.py"]

    def test_imports_from_test_directories_do_not_count(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/used.py": "",
                "src/repro/tested_only.py": "",
                "benchmarks/run.py": "import repro.used\n",
                "benchmarks/tests/test_run.py": "import repro.tested_only\n",
                "tests/test_all.py": "import repro.tested_only\n",
            },
        )
        assert self._checker().unreached(root) == ["src/repro/tested_only.py"]

    def test_package_main_is_an_entry_point(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/tool/__init__.py": "",
                "src/repro/tool/__main__.py": "from repro.tool import core\n",
                "src/repro/tool/core.py": "",
            },
        )
        assert self._checker().unreached(root) == []

    def test_reaching_a_module_runs_its_parent_package_imports(self, tmp_path):
        """Importing ``repro.pkg.leaf`` runs ``repro/pkg/__init__``, so what
        that ``__init__`` imports from *outside* its own package is reached."""
        root = self._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/util.py": "",
                "src/repro/pkg/__init__.py": "import repro.util\n",
                "src/repro/pkg/leaf.py": "",
                "examples/demo.py": "import repro.pkg.leaf\n",
            },
        )
        assert self._checker().unreached(root) == []

    def test_an_allowlisted_module_is_unreached_but_not_a_finding(self, tmp_path):
        checker = self._checker()
        (allowed,) = checker.ALLOWED
        root = self._tree(tmp_path, {"src/repro/__init__.py": "", allowed: "", "examples/demo.py": "import repro\n"})
        assert checker.unreached(root) == [allowed]
        assert checker.findings(root) == []


class TestPublicNames:
    """The public-name census the same checker runs: clean on the real tree,
    and an ``__all__`` name passes only when a module outside its package or
    an entry point reads it through the package."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_reachable.py")

    def _flagged(self, tmp_path, files: dict[str, str]) -> list[str]:
        """``path: name`` for each finding in a tree whose package ``pkg``
        re-exports ``Name`` from ``pkg/defs.py``, plus ``files``."""
        root = TestReachability._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/pkg/__init__.py": 'from repro.pkg.defs import Name\n\n__all__ = ["Name"]\n',
                "src/repro/pkg/defs.py": "class Name:\n    def method(self): ...\n",
                "src/repro/other/__init__.py": "",
                **files,
            },
        )
        return [failure.rsplit(": ", 1)[0] for failure in self._checker().name_findings(root)]

    def test_repo_sources_are_clean(self):
        assert self._checker().name_findings(REPO_ROOT) == []

    def test_a_name_only_tests_import_is_flagged(self, tmp_path):
        files = {
            "tests/test_pkg.py": "from repro.pkg import Name\n",
            "benchmarks/tests/test_bench.py": "import repro.pkg\n\nrepro.pkg.Name()\n",
        }
        assert self._flagged(tmp_path, files) == ["src/repro/pkg/__init__.py: Name"]

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.pkg import Name\n",
            "def main():\n    from repro.pkg import Name\n\n    return Name()\n",
            "import repro.pkg\n\nrepro.pkg.Name().method()\n",
            "import repro.pkg as pkg\n\npkg.Name()\n",
        ],
        ids=["from-import", "in-function", "attribute", "aliased-attribute"],
    )
    def test_a_name_an_entry_point_reads_passes(self, tmp_path, source):
        assert self._flagged(tmp_path, {"scripts/tool.py": source}) == []

    def test_a_module_of_the_package_itself_does_not_count(self, tmp_path):
        flagged = self._flagged(tmp_path, {"src/repro/pkg/user.py": "from repro.pkg import Name\n"})
        assert flagged == ["src/repro/pkg/__init__.py: Name"]

    def test_another_packages_module_counts_but_its_init_does_not(self, tmp_path):
        assert self._flagged(tmp_path / "module", {"src/repro/other/user.py": "from repro.pkg import Name\n"}) == []
        re_export = {"src/repro/other/__init__.py": 'from repro.pkg import Name\n\n__all__ = ["Name"]\n'}
        assert self._flagged(tmp_path / "init", re_export) == [
            "src/repro/other/__init__.py: Name",
            "src/repro/pkg/__init__.py: Name",
        ]

    @pytest.mark.parametrize(
        "source",
        ['TARGETS = ("repro.pkg.Name.method",)\n', 'TARGETS = [f"repro.pkg.Name.{how}" for how in ("method",)]\n'],
        ids=["literal", "f-string"],
    )
    def test_a_dotted_string_counts_in_an_entry_point_only(self, tmp_path, source):
        """``perfbench/trace.py`` resolves such strings through the package,
        so they are reads there; a string in ``src/`` resolves nothing."""
        assert self._flagged(tmp_path / "entry", {"perfbench/trace.py": source}) == []
        flagged = self._flagged(tmp_path / "src", {"src/repro/other/trace.py": source})
        assert flagged == ["src/repro/pkg/__init__.py: Name"]

    def test_all_must_be_exactly_what_the_init_binds(self, tmp_path):
        files = {
            "src/repro/pkg/__init__.py": 'from repro.pkg.defs import Name\nCAP = 1\n__all__ = ["Missing", "Name"]\n',
            "examples/demo.py": "import repro.pkg\nfrom repro.pkg import Missing, Name\n\nprint(repro.pkg.CAP)\n",
        }
        flagged = self._flagged(tmp_path, files)
        assert flagged == ["src/repro/pkg/__init__.py: CAP", "src/repro/pkg/__init__.py: Missing"]

    def test_a_package_without_all_must_bind_nothing(self, tmp_path):
        files = {
            "src/repro/other/__init__.py": "from repro.pkg.defs import Name\n",
            "examples/demo.py": "from repro.other import Name\nfrom repro.pkg import Name as Same\n",
        }
        assert self._flagged(tmp_path, files) == ["src/repro/other/__init__.py: Name"]


class TestLayering:
    """The layer rule the same checker enforces: clean on the real tree, and
    an import that reaches a higher package is flagged however it is written."""

    def _checker(self):
        return load(REPO_ROOT / "scripts" / "check_reachable.py")

    def _flagged(self, tmp_path, files: dict[str, str]) -> list[str]:
        """Paths the checker flags in a tree of three listed packages
        (``churn`` above ``core`` above ``services``) plus ``files``."""
        root = TestReachability._tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/churn/__init__.py": (
                    "from repro.churn.schedule import ChurnSchedule\nfrom repro.services.retry import RetryPolicy\n"
                ),
                "src/repro/churn/schedule.py": "from repro.core.federation import Federation\n",
                "src/repro/core/__init__.py": "",
                "src/repro/core/federation.py": "from repro.services.retry import RetryPolicy\n",
                "src/repro/services/__init__.py": "",
                "src/repro/services/retry.py": "class RetryPolicy: ...\n",
                **files,
            },
        )
        return [failure.split(": ")[0] for failure in self._checker().layer_findings(root)]

    def test_repo_sources_are_clean(self):
        assert self._checker().layer_findings(REPO_ROOT) == []

    def test_downward_imports_are_clean(self, tmp_path):
        assert self._flagged(tmp_path, {}) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.churn.schedule import ChurnSchedule\n",
            "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n    from repro.churn.schedule import ChurnSchedule\n",
            "def schedule():\n    from repro.churn.schedule import ChurnSchedule\n\n    return ChurnSchedule()\n",
            "from ..churn.schedule import ChurnSchedule\n",
            "import repro.churn\n",
        ],
        ids=["module-level", "type-checking", "in-function", "relative", "plain-import"],
    )
    def test_an_upward_import_is_flagged(self, tmp_path, source):
        assert self._flagged(tmp_path, {"src/repro/core/client.py": source}) == ["src/repro/core/client.py"]

    def test_an_import_is_charged_to_the_package_it_names(self, tmp_path):
        """``RetryPolicy`` is defined in ``services``, below ``core``; but
        the statement runs ``churn/__init__``, which is above."""
        assert self._flagged(tmp_path, {"src/repro/core/client.py": "from repro.churn import RetryPolicy\n"}) == [
            "src/repro/core/client.py"
        ]

    def test_importing_the_root_package_is_upward(self, tmp_path):
        flagged = self._flagged(
            tmp_path,
            {
                "src/repro/core/a.py": "from repro import ChurnSchedule\n",
                "src/repro/core/b.py": "from repro import services\n",  # names repro.services: downward
            },
        )
        assert flagged == ["src/repro/core/a.py"]

    @pytest.mark.parametrize(
        "source",
        ["from repro.churn import ChurnSchedule\n", "import repro.services.retry\n", "from . import core\n"],
        ids=["upward-package", "downward-module", "relative"],
    )
    def test_any_import_in_the_root_init_is_flagged(self, tmp_path, source):
        """Importing any ``repro`` module runs the root first, so the root
        imports nothing, however low the import reaches."""
        assert self._flagged(tmp_path, {"src/repro/__init__.py": source}) == ["src/repro/__init__.py"]

    def test_a_package_missing_from_layers_is_flagged(self, tmp_path):
        assert self._flagged(tmp_path, {"src/repro/extras/__init__.py": "import repro.churn\n"}) == ["src/repro/extras"]

    def test_the_architecture_diagram_draws_layers_in_order(self):
        """Every package in docs/ARCHITECTURE.md § Layer map, top to bottom
        and left to right, is ``LAYERS`` exactly."""
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = architecture.split("## Layer map", 1)[1]
        diagram = section.split("```text\n", 1)[1].split("```", 1)[0]
        drawn = re.findall(r"(?<!\S)([a-z]+)/(?=\s|$)", diagram)
        assert drawn == list(self._checker().LAYERS)

    def test_each_package_imports_first_in_a_fresh_interpreter(self):
        """A removed import guard can leave a cycle that only one entry
        order trips, and pytest's collection order hides which.  One fresh
        interpreter (numpy preloaded with one BLAS thread, so the fork is
        single-threaded; nothing from ``repro``) forks a child per package
        whose first ``repro`` import is that package.  The root ``repro``
        loads no package, and each package loads only itself and packages
        below it in ``LAYERS``."""
        layers = self._checker().LAYERS
        result = subprocess.run(
            [sys.executable, "-c", _FIRST_IMPORTS, *layers],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        reports = json.loads(result.stdout)
        failures = {package: report for package, report in reports.items() if report.startswith("FAILED")}
        assert failures == {}
        assert reports.pop("repro") == ""
        rank = {package: index for index, package in enumerate(layers)}
        for package, report in reports.items():
            assert [name for name in report.split() if rank[name] < rank[package]] == [], package


_FIRST_IMPORTS = '''
import json
import os
import sys
import threading

import numpy  # noqa: F401  (loaded once, before any fork)

assert threading.active_count() == 1, "fork needs a single-threaded parent"


def fork(module):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            __import__(module)
            report = " ".join(sorted({name.split(".")[1] for name in sys.modules if name.startswith("repro.")}))
        except Exception as error:
            report = f"FAILED {error!r}"
        os.write(write, report.encode())
        os._exit(0)
    os.close(write)
    return pid, read


def report(child):
    pid, read = child
    with os.fdopen(read) as stream:
        text = stream.read()
    os.waitpid(pid, 0)
    return text


reports = {"repro": report(fork("repro"))}
children = {package: fork("repro." + package) for package in sys.argv[1:]}
reports.update((package, report(child)) for package, child in children.items())
print(json.dumps(reports))
'''
"""The driver for the fresh-interpreter test: ``python -c _FIRST_IMPORTS
<package>...`` prints ``{module: loaded packages or "FAILED ..."}``."""


CONFIG_CLASSES = {
    "FederationConfig": "repro.core.config",
    "WorkloadConfig": "repro.workload.config",
    "TelemetryConfig": "repro.telemetry.pipeline",
    "SLOConfig": "repro.telemetry.slo",
    "OperatorConfig": "repro.operator.config",
    "AutoscalerConfig": "repro.autoscale.policy",
    "RetryPolicy": "repro.services.retry",
    "LatencyModel": "repro.simulation.network",
}
"""The run-config classes whose fields the options census covers, by the
module that defines each."""

CENSUS_DIRECTORIES = ("src", "benchmarks", "perfbench", "scripts")

GOLDEN_CASES_ONLY = (
    "non-default values only in golden cases, which re-derive with scripts/rebaseline.py; "
    "folding it is the next slice of ROADMAP item 19"
)

KEPT_FIELDS = {
    "FederationConfig.discovery_suffix": "deployment setting: the DNS zone a federation registers under",
    "FederationConfig.latency": GOLDEN_CASES_ONLY,
    "WorkloadConfig.long_traces": GOLDEN_CASES_ONLY,
    "WorkloadConfig.trace_dwell_steps": GOLDEN_CASES_ONLY,
    "OperatorConfig.principal": "deployment setting: the operator's credential",
    "OperatorConfig.endpoint_id": "deployment setting: the control endpoint's address",
    "OperatorConfig.region": "deployment setting: where the operator's console sits",
    "OperatorConfig.timeout_ms": "one value (400 ms), but perfbench/workloads.py passes it by keyword",
    "SLOConfig.availability_target": "one value (0.99), but perfbench/workloads.py passes it by keyword",
    "AutoscalerConfig.wait_high_ms": "one value (25 ms), but perfbench/workloads.py passes it by keyword",
    "AutoscalerConfig.wait_low_ms": "one value (8 ms), but perfbench/workloads.py passes it by keyword",
    "AutoscalerConfig.burn_high": "one value (0: trigger off), but perfbench/workloads.py passes it by keyword",
    "RetryPolicy.kind": "two values, set only through the no-keyword constructors the census cannot read",
    "LatencyModel.jitter_sigma": GOLDEN_CASES_ONLY,
    "LatencyModel.loss_probability": GOLDEN_CASES_ONLY,
}
"""Fields with fewer than two values in use that stay fields anyway, with
the reason."""


def _literal(node: ast.expr) -> object:
    """The hashable literal ``node`` spells; ``ValueError`` if none."""
    try:
        value = ast.literal_eval(node)
        hash(value)
    except TypeError as error:
        raise ValueError(node) from error
    return value


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Module-level names bound once, to a literal."""
    bound: dict[str, list[ast.expr]] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, []).append(statement.value)
    constants = {}
    for name, values in bound.items():
        try:
            (constants[name],) = (_literal(value) for value in values)
        except ValueError:
            pass
    return constants


def _census_value(node: ast.expr, constants: dict[str, object]) -> object:
    """A passed value as the census compares it: the literal it spells or
    names through a module constant, else its source text."""
    if isinstance(node, ast.Name) and node.id in constants:
        return constants[node.id]
    try:
        return _literal(node)
    except ValueError:
        return ("source", ast.unparse(node))


def _default(field: dataclasses.Field) -> object:
    value = field.default if field.default is not dataclasses.MISSING else field.default_factory()
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def config_values(root: Path) -> dict[str, set[object]]:
    """The values each ``Class.field`` of ``CONFIG_CLASSES`` takes at the
    calls under ``CENSUS_DIRECTORIES``, not counting calls in the module
    that defines the class.  A ``Class(...)`` call contributes its keyword
    and positional arguments and, unless it splats ``*`` or ``**``, the
    default of every field it leaves out; a ``Class.ctor(...)`` call only
    its keywords.  A name counts as the literal a module-level constant of
    the same file binds it to, any other expression as its source text."""
    classes = {name: getattr(importlib.import_module(module), name) for name, module in CONFIG_CLASSES.items()}
    own = {name: root / "src" / Path(*module.split(".")).with_suffix(".py") for name, module in CONFIG_CLASSES.items()}
    fields = {name: [field for field in dataclasses.fields(cls) if field.init] for name, cls in classes.items()}
    values: dict[str, set[object]] = {f"{name}.{field.name}": set() for name in classes for field in fields[name]}
    for directory in CENSUS_DIRECTORIES:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            constants = _module_constants(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) and callee.value.id in classes:
                    name, direct = callee.value.id, False
                elif isinstance(callee, (ast.Name, ast.Attribute)):
                    name, direct = callee.id if isinstance(callee, ast.Name) else callee.attr, True
                else:
                    continue
                if name not in classes or path == own[name]:
                    continue
                passed = {keyword.arg: keyword.value for keyword in node.keywords if keyword.arg}
                splat = len(passed) < len(node.keywords) or any(isinstance(arg, ast.Starred) for arg in node.args)
                if direct and not splat:
                    passed.update((field.name, arg) for field, arg in zip(fields[name], node.args))
                for field in fields[name]:
                    if field.name in passed:
                        values[f"{name}.{field.name}"].add(_census_value(passed[field.name], constants))
                    elif direct and not splat:
                        values[f"{name}.{field.name}"].add(_default(field))
    return values


class TestConfigOptions:
    """A config field needs two different values in use outside tests and
    examples, or it is a module constant.  ``KEPT_FIELDS`` names the
    exceptions, and an entry that stops being one fails too."""

    @staticmethod
    def _single_valued() -> set[str]:
        return {field for field, values in config_values(REPO_ROOT).items() if len(values) < 2}

    def test_every_field_has_two_values_in_use_or_is_kept_for_a_reason(self):
        assert sorted(self._single_valued() - KEPT_FIELDS.keys()) == []

    def test_no_kept_field_is_stale(self):
        assert sorted(KEPT_FIELDS.keys() - self._single_valued()) == []

    def test_the_architecture_options_section_lists_the_kept_fields(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = architecture.split("## Options", 1)[1].split("\n## ", 1)[0]
        assert [kept for kept in KEPT_FIELDS if f"`{kept}`" not in section] == []

    def test_the_census_reads_call_forms_defaults_positions_and_constants_not_the_own_module(self, tmp_path):
        root = TestReachability._tree(
            tmp_path,
            {
                "src/repro/telemetry/slo.py": "SLOConfig(latency_ms=1.0)\n",
                "src/repro/workload/engine.py": "slo.SLOConfig(availability_target=0.9)\n",
                "scripts/tool.py": (
                    "LIMIT = 3.0\n"
                    "SLOConfig.ctor(latency_ms=2.0, **extra)\n"
                    "Other(latency_ms=4.0)\n"
                    "SLOConfig(LIMIT, 0.9)\n"
                    "SLOConfig(latency_ms=limit, availability_target=0.9)\n"
                    "SLOConfig(**settings)\n"
                ),
                "benchmarks/.keep.py": "",
                "perfbench/.keep.py": "",
            },
        )
        values = config_values(root)
        assert values["SLOConfig.latency_ms"] == {250.0, 2.0, 3.0, ("source", "limit")}
        assert values["SLOConfig.availability_target"] == {0.9}
        assert values["TelemetryConfig.window_seconds"] == set()


READER_DIRECTORIES = ("benchmarks", "perfbench", "scripts", "examples")
"""Where a report key's readers live; a ``tests`` directory under them does
not count."""

REPORT_SECTIONS = {
    "availability": "availability",
    "control": "control_stats",
    "faults": "fault_stats",
    "autoscale": "autoscale_stats",
    "operator": "operator_stats",
    "sampling": "sampling",
    "telemetry": "summary",
    "server.<id>": "server_stats",
}
"""Snapshot prefix → the report accessor whose dict holds the rest of the
key as a leaf (``telemetry`` is ``report.telemetry.summary()``)."""

REPORT_SCALARS = {
    "requests": "requests",
    "errors": "errors",
    "simulated_seconds": "simulated_seconds",
    "discovery_cache.hit_rate": "discovery_cache_hit_rate",
    "tile_cache.hit_rate": "tile_cache_hit_rate",
    "dns_cache.hit_rate": "dns_cache_hit_rate",
    "balance.replica_load_cv": "replica_load_cv",
}
"""Snapshot key → the report attribute that holds it."""

LATENCY_ACCESSOR = "latency_percentiles"
"""Reads ``latency_ms.<kind>.<p50|p95|p99>`` of the registry's histograms."""

KEPT_KEYS: dict[str, str] = {}
"""Snapshot key families that no reader reads but stay, with the reason."""

_PASS_THROUGH = {"items", "values", "copy", "dict", "sorted", "list"}


def key_family(key: str) -> str:
    """``key`` with its server id or telemetry region folded."""
    key = re.sub(r"^server\..+\.(\w+)$", r"server.<id>.\1", key)
    return re.sub(r"^telemetry\.region\d+\.", "telemetry.region<n>.", key)


def report_families(report) -> dict[str, str]:
    """Each key family of ``report.snapshot()`` → ``"registry"`` when the
    metrics registry writes it, else ``"report"``."""
    registry_keys = report.metrics.snapshot().keys()
    return {
        key_family(key): "registry" if key in registry_keys else "report"
        for key in report.snapshot()
    }


def _text(node: ast.expr) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def report_reads(tree: ast.Module) -> set[tuple[str, ...]]:
    """What one reader module reads of a report, as tokens:

    * ``("name", s)`` for every string literal;
    * ``("attribute", a)`` for every attribute it reads;
    * ``("leaf", accessor, leaf)`` where it indexes, or ``.get``s, what a
      report accessor returned by a literal leaf, or by a name bound to
      literals (``for key in ("a", "b"): stats[key]``);
    * ``("whole", accessor)`` where such a value goes whole into a dict, an
      item or attribute, a keyword argument or a return value (an artifact
      carries every leaf).

    Values are followed through assignments and loop targets, through
    ``.items()`` / ``.values()`` / ``dict()`` / ``sorted()``, and through
    indexing by anything else (a server id)."""
    accessors = {*REPORT_SECTIONS.values(), LATENCY_ACCESSOR}
    bindings: dict[str, list[ast.expr]] = {}
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            pairs = [(node.target, node.iter)]
        for target, value in pairs:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    bindings.setdefault(name.id, []).append(value)

    def leaves(node: ast.expr) -> set[str]:
        """The literal leaves an index or ``.get`` argument can be."""
        values = bindings.get(node.id, ()) if isinstance(node, ast.Name) else (node,)
        found = set()
        for value in values:
            elements = value.elts if isinstance(value, (ast.Tuple, ast.List, ast.Set)) else [value]
            found.update(_text(element) for element in elements)
        return found - {None}

    def carried(node: ast.expr, seen: frozenset[str] = frozenset()) -> set[str]:
        """The accessors whose whole value (or one id's share of it) ``node`` is."""
        if isinstance(node, ast.Attribute):
            return {node.attr} & accessors
        if isinstance(node, ast.Name) and node.id not in seen:
            return set().union(*(carried(value, seen | {node.id}) for value in bindings.get(node.id, ())))
        if isinstance(node, ast.Subscript) and not leaves(node.slice):
            return carried(node.value, seen)
        if isinstance(node, ast.IfExp):
            return carried(node.body, seen) | carried(node.orelse, seen)
        if not isinstance(node, ast.Call):
            return set()
        callee = node.func
        if isinstance(callee, ast.Attribute):
            if callee.attr in accessors:
                return {callee.attr}
            by_id = callee.attr == "get" and node.args and not leaves(node.args[0])
            if callee.attr in _PASS_THROUGH or by_id:
                return carried(callee.value, seen)
        elif isinstance(callee, ast.Name) and callee.id in _PASS_THROUGH and node.args:
            return carried(node.args[0], seen)
        return set()

    reads: set[tuple[str, ...]] = set()
    for node in ast.walk(tree):
        if _text(node) is not None:
            reads.add(("name", node.value))
        elif isinstance(node, ast.Attribute):
            reads.add(("attribute", node.attr))
        if isinstance(node, ast.Subscript):
            index, base = node.slice, node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            index, base = (node.args or [None])[0], node.func.value
        else:
            index = None
        if index is not None:
            reads.update(("leaf", accessor, leaf) for accessor in carried(base) for leaf in leaves(index))
        sinks = []
        if isinstance(node, ast.Dict):
            sinks = node.values
        elif isinstance(node, (ast.keyword, ast.Return)) and node.value is not None:
            sinks = [node.value]
        elif isinstance(node, ast.Assign) and not all(isinstance(target, ast.Name) for target in node.targets):
            sinks = [node.value]
        for sink in sinks:
            reads.update(("whole", accessor) for accessor in carried(sink))
    return reads


def reader_reads(root: Path) -> dict[str, set[tuple[str, ...]]]:
    """:func:`report_reads` of every module under ``READER_DIRECTORIES``."""
    return {
        path.relative_to(root).as_posix(): report_reads(ast.parse(path.read_text(), filename=str(path)))
        for directory in READER_DIRECTORIES
        for path in sorted((root / directory).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    }


def is_read(family: str, origin: str, reads: set[tuple[str, ...]]) -> bool:
    """Whether one reader module's ``reads`` read the key ``family``: by its
    snapshot name, or by the accessor and leaf that produce it."""
    if ("name", family) in reads:
        return True
    if origin == "registry":
        head, kind, stat = (family.split(".") + ["", ""])[:3]
        return (
            head == "latency_ms"
            and ("leaf", LATENCY_ACCESSOR, stat) in reads
            and (kind == "all" or ("name", kind) in reads)
        )
    if family in REPORT_SCALARS:
        return ("attribute", REPORT_SCALARS[family]) in reads
    for prefix, accessor in REPORT_SECTIONS.items():
        if family.startswith(prefix + "."):
            leaf = family[len(prefix) + 1 :]
            return ("whole", accessor) in reads or ("leaf", accessor, leaf) in reads
    return False


def report_census(
    families: dict[str, str], readers: dict[str, set[tuple[str, ...]]], kept: dict[str, str]
) -> tuple[list[str], list[str]]:
    """``(families no reader reads and ``kept`` does not name, kept entries
    that are read or in no snapshot)``: both empty when the census holds."""
    unread = {
        family
        for family, origin in families.items()
        if not any(is_read(family, origin, reads) for reads in readers.values())
    }
    return sorted(unread - kept.keys()), sorted(kept.keys() - unread)


def snapshot_sections(report) -> dict[str, set[str]]:
    """The keys each writer of ``report.snapshot()`` contributes: the
    metrics registry, the scalar attributes, and each report section."""
    sections = {
        "registry": set(report.metrics.snapshot()),
        "scalars": set(REPORT_SCALARS),
        "server.<id>": {
            f"server.{server_id}.{stat}" for server_id, stats in report.server_stats.items() for stat in stats
        },
    }
    dicts = {
        "availability": report.availability(),
        "control": report.control_stats,
        "faults": report.fault_stats,
        "autoscale": report.autoscale_stats,
        "operator": report.operator_stats,
        "sampling": report.sampling,
        "telemetry": report.telemetry.summary() if report.telemetry is not None else {},
    }
    sections.update((prefix, {f"{prefix}.{key}" for key in values}) for prefix, values in dicts.items())
    return sections


class TestReportKeys:
    """Every key of ``WorkloadReport.snapshot()`` has a reader under
    ``READER_DIRECTORIES`` (its name, or the accessor and leaf that produce
    it), or ``KEPT_KEYS`` names it with a reason; an entry that stops being
    an exception fails too.  The snapshots are the engine goldens' runs,
    which between them turn on every subsystem."""

    @pytest.fixture(scope="class")
    def runs(self):
        from test_engine_equivalence import RUNS

        return {case: run() for case, run in RUNS.items()}

    @pytest.fixture(scope="class")
    def census(self, runs):
        families: dict[str, str] = {}
        for report in runs.values():
            families.update(report_families(report))
        return report_census(families, reader_reads(REPO_ROOT), KEPT_KEYS)

    def test_every_key_is_read_or_kept_for_a_reason(self, census):
        unread, _stale = census
        assert unread == []

    def test_no_kept_key_is_stale(self, census):
        _unread, stale = census
        assert stale == []

    def test_the_architecture_report_keys_section_lists_the_kept_keys(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = architecture.split("## Report keys", 1)[1].split("\n## ", 1)[0]
        assert "TestReportKeys" in section
        assert [kept for kept in KEPT_KEYS if f"`{kept}`" not in section] == []

    @pytest.mark.parametrize("case", ["kitchen-sink", "every-subsystem"])
    def test_each_key_has_one_writer(self, runs, case):
        report = runs[case]
        sections = snapshot_sections(report)
        assert set().union(*sections.values()) == report.snapshot().keys()
        overlaps = [
            (first, second, sorted(sections[first] & sections[second]))
            for first in sections
            for second in sections
            if first < second and sections[first] & sections[second]
        ]
        assert overlaps == []

    def test_the_census_reads_names_accessor_leaves_and_whole_sections_not_tests(self, tmp_path):
        root = TestReachability._tree(
            tmp_path,
            {
                "benchmarks/bench.py": (
                    "availability = report.availability()\n"
                    "tail = report.latency_percentiles()\n"
                    "row = {'fo_p95': availability['failover_p95_ms'], 'p95': tail['p95'], 'n': report.requests}\n"
                    "row['_control'] = dict(sorted(report.control_stats.items()))\n"
                    "for server_id, stats in sorted(report.server_stats.items()):\n"
                    "    print(server_id, stats.get('dropped', 0.0))\n"
                ),
                "examples/demo.py": (
                    "stats = report.autoscale_stats\n"
                    "for key in ('promotions', 'flaps'):\n"
                    "    print(stats[key])\n"
                    "print(snapshot['tiles.downloaded'])\n"
                ),
                "scripts/.keep.py": "",
                "perfbench/tests/test_bench.py": "print(report.fault_stats['stale_serves'], report.errors)\n",
                "tests/test_all.py": "print(report.availability()['failovers'], report.sampling)\n",
            },
        )
        families = {
            "availability.failover_p95_ms": "report",
            "availability.failovers": "report",
            "latency_ms.all.p95": "registry",
            "latency_ms.search.p95": "registry",
            "requests": "report",
            "errors": "report",
            "control.converge_p95_s": "report",
            "control.drain": "registry",
            "server.<id>.dropped": "report",
            "server.<id>.served": "report",
            "autoscale.flaps": "report",
            "autoscale.parks": "report",
            "tiles.downloaded": "registry",
            "faults.stale_serves": "report",
            "sampling.tracers": "report",
        }
        kept = {"sampling.tracers": "a reason", "requests": "stale: it is read"}
        unread, stale = report_census(families, reader_reads(root), kept)
        assert unread == [
            "autoscale.parks",
            "availability.failovers",
            "control.drain",
            "errors",
            "faults.stale_serves",
            "latency_ms.search.p95",
            "server.<id>.served",
        ]
        assert stale == ["requests"]
