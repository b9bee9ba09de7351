"""The paper's claims, held against the committed artifact (no simulation).

``BENCH_e00.json`` is what ``benchmarks/bench_e00_paper.py --smoke`` writes and
``scripts/check.sh --smoke`` byte-gates: E1–E12 and A1 as top-level keys, each
``table -> row -> column``.  The providers' ``bands()`` read those tables
whether they were just computed or loaded back from disk, so this file checks
the bands themselves: they hold on the committed numbers, and a doctored copy
of each headline claim produces a failure line that names its experiment.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_e00_paper as paper  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from artifact_drift import flatten  # noqa: E402


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((REPO_ROOT / "BENCH_e00.json").read_text())


def test_top_level_keys_are_exactly_the_paper_experiments(committed):
    assert list(paper.PROVIDERS) == [*(f"E{n}" for n in range(1, 13)), "A1"]
    assert sorted(committed) == sorted(paper.PROVIDERS)
    for experiment_id, provider in paper.PROVIDERS.items():
        assert sorted(committed[experiment_id]) == sorted(provider.CELLS), f"{experiment_id}: tables != CELLS"


def test_the_committed_tables_hold_every_band(committed):
    assert paper.verify(committed) == []


def test_no_wall_clock_leaf_and_every_float_at_the_stated_precision(committed):
    for path, leaf in flatten(committed):
        column = path.rsplit(".", 1)[-1]
        assert not re.search(r"wall|elapsed|seconds|_s$|ms_per_", column), f"{path} looks like host time"
        if isinstance(leaf, float):
            assert leaf == round(leaf, paper.DECIMALS), f"{path} = {leaf!r} is not rounded"


@pytest.mark.parametrize(
    ("experiment", "table", "row", "column", "value", "names"),
    [
        ("E7", "recall", "federated (Fig 2)", "recall", 0.5, "need federated indoor-product recall > 0.9"),
        ("E6", "indoor_error", "federated (store map servers)", "mean_error_m", 9.5, "need federated mean error below"),
        ("E9", "exposure", "outside user", "private_rooms_visible", 1, "need outsiders see 0 of >= 20 private rooms"),
        ("E3", "cache_state", "warm", "messages", 40, "need warm discovery is cheaper than cold"),
        ("E10", "preprocessing", "36", "routable_pairs", 0, "need 36-vertex grid: >= 15 of 20 pairs routable"),
        ("E2", "search_overhead", "federated (Fig 2)", "messages_per_request", 1.0, "need federated search costs more"),
        # Vacuous passes: a cell that measured nothing must fail its band, not satisfy it with 0 <= 0.
        ("E7", "recall", "centralized, indoor maps withheld (Fig 1)", "queries", 0, "< 0.1 over >= 24 queries"),
        ("E6", "noise_sweep", "10", "fixes", 0, "need at 10 dB noise >= 12 of 15 trials produce a fix"),
        ("E6", "technology", "image", "wins", 0, "need a technology wins >= 27 of 30 trials"),
    ],
)
def test_a_doctored_claim_fails_with_a_line_naming_its_experiment(
    committed, experiment, table, row, column, value, names
):
    doctored = copy.deepcopy(committed)
    doctored[experiment][table][row][column] = value
    failures = paper.verify(doctored)
    assert failures, f"{experiment}.{table}.{row}.{column} = {value!r} passed every band"
    section = paper.PROVIDERS[experiment].__doc__.split(":")[0]
    assert section.startswith(f"{experiment} — ")
    assert all(failure.startswith(f"{section}: ") for failure in failures), failures
    assert any(names in failure and f"'{column}': {value!r}" in failure for failure in failures), failures
