"""The one golden mechanism: a case's payload, stored as canonical JSON.

A golden module declares ``CASES: dict[str, Callable[[], object]]`` (case
name → a function that builds the payload) and one test parametrised over
it that calls :func:`assert_golden`.  Case ``c`` of ``tests/test_x.py`` is
stored in ``tests/goldens/test_x/c.json`` as :func:`canonical` text, so a
mismatch fails with the JSON key paths that moved (``path: old -> new``,
``scripts/artifact_drift.py``'s ``drift``), not with a bare digest.

``scripts/rebaseline.py --reason TEXT`` rewrites every file from the same
tables after a deliberate model change.  A case that cannot run on the
running interpreter calls ``pytest.skip`` itself: its test skips and the
re-baseline leaves its file as stored.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDENS = TESTS / "goldens"
SHOWN_LINES = 20

_spec = importlib.util.spec_from_file_location("artifact_drift", TESTS.parent / "scripts" / "artifact_drift.py")
_artifact_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_artifact_drift)
drift = _artifact_drift.drift


def canonical(payload: object) -> str:
    """The stored text of a payload: sorted keys, one value per line."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def golden_path(module: str, case: str) -> Path:
    return GOLDENS / module / f"{case}.json"


def golden_modules() -> list[str]:
    """The test modules (file stems) that declare a top-level ``CASES: dict[...]``."""
    return sorted(
        path.stem for path in TESTS.glob("test_*.py") if re.search(r"^CASES: dict\[", path.read_text(), re.MULTILINE)
    )


def assert_golden(module_file: str, case: str, payload: object) -> None:
    """Fail unless ``payload``'s canonical text equals the stored golden of
    ``case`` in the module whose ``__file__`` is ``module_file``."""
    path = golden_path(Path(module_file).stem, case)
    if not path.is_file():
        pytest.fail(f"no golden at {path}: run scripts/rebaseline.py --reason TEXT")
    stored = path.read_text()
    text = canonical(payload)
    if text == stored:
        return
    moved = drift(json.loads(stored), json.loads(text))
    shown = moved[:SHOWN_LINES] or ["(no leaf differs by value: a type or key-order change)"]
    more = f"\n  … and {len(moved) - SHOWN_LINES} more" if len(moved) > SHOWN_LINES else ""
    pytest.fail(f"{path.relative_to(TESTS.parent)} moved (old -> new):\n  " + "\n  ".join(shown) + more)
