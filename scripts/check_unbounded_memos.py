#!/usr/bin/env python
"""Fail the lint stage on a host-side memo with no stated bound, one kept
beside its source instead of on it, or one the memo table in
``docs/ARCHITECTURE.md`` does not name.

The library remembers pure results in many places (extracted graphs, cell
enumerations, rendered composites, per-map answers — the table is in
``docs/ARCHITECTURE.md`` § Answer reuse).  None of them may grow for the life
of the process: a fleet sweep stands up hundreds of federations in one
interpreter, and ``perfbench`` holds ``peak_rss_mb`` to a 5% bound.  This
check names the three shapes an unbounded memo takes, anywhere under
``src/repro/``:

* ``@functools.cache`` (it is ``lru_cache(maxsize=None)``);
* ``@lru_cache`` bare, ``@lru_cache()`` or ``@lru_cache(maxsize=None)`` — the
  bound must be written down, as a literal or a named constant;
* ``LruCache(...)`` without ``max_entries`` given as an integer literal, a
  named constant or an attribute of the owning object (the client-side model
  caches pass the bound their config gave them).

A decorated function that takes no argument at all holds at most one value
and is exempt from the first two.  A module-level ``WeakKeyDictionary()`` is
a finding too: a memo keyed on a mutable object must be held *on* it
(``MutableSource.derive``), where its mutations drop it, not beside it with
an invalidation rule of its own.

The second rule keeps the table honest: every memo *site* — an
``lru_cache``-decorated function that takes arguments, an ``LruCache(...)``
given a literal or named bound (by the name it is assigned to) — must
appear, by name and in backticks, in the first column of the table under
"Every host-side memo in ``src/repro/``".  An ``LruCache`` sized by an
attribute of its owner is one of the client-side model caches, which the
table deliberately leaves out.

Standalone use: ``python scripts/check_unbounded_memos.py`` (exit 0 clean,
exit 1 with one ``path:line`` per finding otherwise).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

MEMO_TABLE = Path("docs") / "ARCHITECTURE.md"
MEMO_TABLE_HEADER = "| memo | key | bound | invalidated by |"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name_of(node: ast.expr) -> str | None:
    """``cache`` for both ``cache`` and ``functools.cache``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _argument(call: ast.Call, keyword: str) -> ast.expr | None:
    """The value ``call`` passes for ``keyword`` (also its first positional)."""
    for passed in call.keywords:
        if passed.arg == keyword:
            return passed.value
    return call.args[0] if call.args else None


def _is_bound(node: ast.expr | None, allow_attribute: bool = False) -> bool:
    """True for a positive integer literal or a named constant."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value > 0
    return isinstance(node, ast.Name) or (allow_attribute and isinstance(node, ast.Attribute))


def _takes_arguments(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = function.args
    return bool(args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg)


_UNBOUNDED = "; give it an integer literal or a named constant"


def _decorator_finding(decorator: ast.expr) -> str | None:
    call = decorator if isinstance(decorator, ast.Call) else None
    name = _name_of(call.func if call is not None else decorator)
    if name == "cache":
        return "unbounded memo: functools.cache never evicts" + _UNBOUNDED
    if name == "lru_cache" and (call is None or not _is_bound(_argument(call, "maxsize"))):
        return "unbounded memo: lru_cache without a stated maxsize" + _UNBOUNDED
    return None


def findings(root: Path) -> list[str]:
    """``path:line: message`` for every unbounded memo, and every module-level
    ``WeakKeyDictionary``, under ``root/src/repro``."""
    failures: list[str] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found: list[tuple[int, str]] = []
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTIONS) and _takes_arguments(node):
                for decorator in node.decorator_list:
                    message = _decorator_finding(decorator)
                    if message is not None:
                        found.append((decorator.lineno, message))
            elif isinstance(node, ast.Call) and _name_of(node.func) == "LruCache":
                if not _is_bound(_argument(node, "max_entries"), allow_attribute=True):
                    found.append((node.lineno, "unbounded memo: LruCache without a stated max_entries" + _UNBOUNDED))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
                if _name_of(node.value.func) == "WeakKeyDictionary":
                    found.append(
                        (node.lineno, "memo beside its source: derive it on its source (MutableSource.derive)")
                    )
        failures.extend(f"{path.relative_to(root)}:{line}: {message}" for line, message in sorted(found))
    return failures


def _assigned_names(statement: ast.Assign | ast.AnnAssign) -> list[str]:
    """``_answers`` and ``table`` for ``self._answers = self.table[key] = …``."""
    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
    names = []
    for target in targets:
        while isinstance(target, ast.Subscript):
            target = target.value
        name = _name_of(target)
        if name is not None:
            names.append(name)
    return names


def memo_sites(root: Path) -> list[tuple[str, int, list[str]]]:
    """``(path, line, names)`` of every memo site under ``root/src/repro``;
    a site is listed when the table names any one of its names."""
    sites: list[tuple[str, int, list[str]]] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = str(path.relative_to(root))
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTIONS) and _takes_arguments(node):
                if any(
                    _name_of(d.func if isinstance(d, ast.Call) else d) == "lru_cache"
                    for d in node.decorator_list
                ):
                    sites.append((where, node.lineno, [node.name]))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for call in ast.walk(node.value):
                    if not (isinstance(call, ast.Call) and _name_of(call.func) == "LruCache"):
                        continue
                    if not isinstance(_argument(call, "max_entries"), ast.Attribute):
                        sites.append((where, call.lineno, _assigned_names(node)))
    return sorted(sites)


def listed_names(root: Path) -> set[str]:
    """Every identifier in backticks in the first column of the memo table."""
    lines = (root / MEMO_TABLE).read_text().splitlines()
    if MEMO_TABLE_HEADER not in lines:
        raise SystemExit(f"{MEMO_TABLE}: no memo table (header {MEMO_TABLE_HEADER!r})")
    names: set[str] = set()
    for line in lines[lines.index(MEMO_TABLE_HEADER) + 2 :]:
        if not line.startswith("|"):
            break
        for quoted in re.findall(r"`([^`]*)`", line.split("|")[1]):
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", quoted))
    return names


def unlisted(root: Path) -> list[str]:
    """``path:line: message`` for every memo site the table does not name."""
    listed = listed_names(root)
    return [
        f"{path}:{line}: memo {' / '.join(names) or '(unnamed)'} is not in the memo table "
        f"of {MEMO_TABLE}; add a row (key, bound, invalidation)"
        for path, line, names in memo_sites(root)
        if not listed.intersection(names)
    ]


def main() -> int:
    failures = findings(REPO_ROOT) + unlisted(REPO_ROOT)
    if failures:
        for failure in failures:
            print(failure)
        print(f"{len(failures)} unbounded or unlisted memo(s) in src/repro/")
        return 1
    print("memo bounds OK, every memo site listed (src/repro/)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
