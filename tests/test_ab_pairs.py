"""``scripts/ab_pairs.py``: its verdict arithmetic on synthetic numbers, and
how it unpacks the two sides from a throwaway git repository.

No perfbench run: only the rule that turns paired parent/change values into
``gain`` / ``unresolved`` / ``worse``, and the trees the runs would start in.
"""

from __future__ import annotations

import importlib.util
import random
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load_ab_pairs()


def _runs(rng: random.Random, center: float, spread: float, count: int = 10) -> list[float]:
    return [center * (1.0 + rng.uniform(-spread, spread)) for _ in range(count)]


class TestVerdict:
    def test_a_15_percent_gain_with_2_percent_spread_is_a_gain(self):
        rng = random.Random(1)
        parent, change = _runs(rng, 2862.0, 0.02), _runs(rng, 1.15 * 2862.0, 0.02)
        assert ab_pairs.verdict(parent, change, "higher") == ("gain", 10, 0)
        # The same numbers read as a cost (lower is better) are the mirror image.
        assert ab_pairs.verdict(parent, change, "lower") == ("worse", 0, 10)

    def test_a_3_percent_gain_with_5_percent_spread_is_unresolved(self):
        rng = random.Random(2)
        parent, change = _runs(rng, 2862.0, 0.05), _runs(rng, 1.03 * 2862.0, 0.05)
        outcome, wins, losses = ab_pairs.verdict(parent, change, "higher")
        assert outcome == "unresolved"
        assert wins + losses == 10

    def test_winning_every_pair_by_less_than_the_parents_quartile_distance_is_unresolved(self):
        parent = [100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0]
        change = [value + 1.0 for value in parent]
        assert ab_pairs.verdict(parent, change, "higher") == ("unresolved", 10, 0)

    def test_eight_wins_of_ten_is_not_nine_tenths(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0] * 2
        assert ab_pairs.verdict(parent, change, "higher") == ("unresolved", 8, 2)
        assert ab_pairs.verdict(parent, [120.0] * 9 + [90.0], "higher") == ("gain", 9, 1)

    def test_fewer_than_ten_pairs_cannot_claim(self):
        assert ab_pairs.verdict([100.0] * 3, [150.0] * 3, "higher") == ("unresolved", 3, 0)
        assert ab_pairs.verdict([100.0] * 9, [150.0] * 9, "higher") == ("unresolved", 9, 0)

    def test_ties_count_for_neither_side(self):
        parent = [1.0] * 10
        assert ab_pairs.verdict(parent, list(parent), "higher") == ("unresolved", 0, 0)

    def test_unpaired_or_empty_runs_are_rejected(self):
        with pytest.raises(ValueError):
            ab_pairs.verdict([1.0, 2.0], [1.0], "higher")
        with pytest.raises(ValueError):
            ab_pairs.verdict([], [], "higher")


class TestDigests:
    def test_equal_digests_pass(self):
        ab_pairs.check_digests("cb69cdca", "cb69cdca")

    def test_differing_digests_are_an_error_naming_both(self):
        with pytest.raises(ab_pairs.DigestMismatch, match="cb69cdca.*45040198"):
            ab_pairs.check_digests("cb69cdca", "45040198")


class TestMarkdownRow:
    def test_row_gives_the_ratio_with_its_base(self):
        rng = random.Random(3)
        parent, change = _runs(rng, 2862.0, 0.02), _runs(rng, 1.15 * 2862.0, 0.02)
        row = ab_pairs.markdown_row("request_direct", 41, "ops_per_s", parent, change, "higher")
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[:3] == ["`request_direct`", "41", "`ops_per_s`"]
        median = ab_pairs.quartiles(parent)[1]
        assert cells[5].endswith(f"× {median:.4g}")
        assert cells[6:] == ["10/10", "gain"]


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", *args],
        check=True,
        capture_output=True,
    )


class TestUnpackSides:
    @pytest.fixture()
    def repo(self, tmp_path: Path) -> Path:
        """One commit, then an uncommitted edit, a new file and an ignored one."""
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "module.py").write_text("VALUE = 1\n")
        (repo / ".gitignore").write_text("*.log\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "parent")
        (repo / "module.py").write_text("VALUE = 2\n")
        (repo / "new.py").write_text("NEW = True\n")
        (repo / "run.log").write_text("left behind\n")
        return repo

    def test_sides_are_equal_length_siblings_and_the_change_holds_the_edit(self, repo: Path, tmp_path: Path):
        trees = ab_pairs.unpack_sides("HEAD", tmp_path / "sides", repo=repo)
        parent, change = trees["parent"], trees["change"]
        assert parent.parent == change.parent == tmp_path / "sides"
        assert len(str(parent)) == len(str(change))
        assert (parent / "module.py").read_text() == "VALUE = 1\n"
        assert not (parent / "new.py").exists()
        assert (change / "module.py").read_text() == "VALUE = 2\n"
        assert (change / "new.py").read_text() == "NEW = True\n"
        assert not (change / "run.log").exists()

    def test_the_repositorys_own_index_is_left_alone(self, repo: Path, tmp_path: Path):
        ab_pairs.unpack_sides("HEAD", tmp_path / "sides", repo=repo)
        status = subprocess.run(
            ["git", "-C", str(repo), "status", "--porcelain"], capture_output=True, text=True, check=True
        )
        assert sorted(status.stdout.splitlines()) == [" M module.py", "?? new.py"]

    def test_aa_unpacks_the_same_revision_on_both_sides(self, repo: Path, tmp_path: Path):
        trees = ab_pairs.unpack_sides("HEAD", tmp_path / "sides", aa=True, repo=repo)
        for tree in trees.values():
            assert sorted(path.name for path in tree.iterdir()) == [".gitignore", "module.py"]
            assert (tree / "module.py").read_text() == "VALUE = 1\n"

