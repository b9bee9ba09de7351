#!/usr/bin/env python
"""Fail the lint stage on a host-side memo with no stated bound.

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
and is exempt from the first two.  ``WeakKeyDictionary`` memos are bounded by
the lifetime of their keys and are not this check's business.

Standalone use: ``python scripts/check_unbounded_memos.py`` (exit 0 clean,
exit 1 with one ``path:line`` per finding otherwise).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

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


def _decorator_finding(decorator: ast.expr) -> str | None:
    call = decorator if isinstance(decorator, ast.Call) else None
    name = _name_of(call.func if call is not None else decorator)
    if name == "cache":
        return "functools.cache never evicts"
    if name == "lru_cache" and (call is None or not _is_bound(_argument(call, "maxsize"))):
        return "lru_cache without a stated maxsize"
    return None


def findings(root: Path) -> list[str]:
    """``path:line: message`` for every unbounded memo under ``root/src/repro``."""
    failures: list[str] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        found: list[tuple[int, str]] = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, _FUNCTIONS) and _takes_arguments(node):
                for decorator in node.decorator_list:
                    message = _decorator_finding(decorator)
                    if message is not None:
                        found.append((decorator.lineno, message))
            elif isinstance(node, ast.Call) and _name_of(node.func) == "LruCache":
                if not _is_bound(_argument(node, "max_entries"), allow_attribute=True):
                    found.append((node.lineno, "LruCache without a stated max_entries"))
        for line, message in sorted(found):
            failures.append(
                f"{path.relative_to(root)}:{line}: unbounded memo: {message}; "
                "give it an integer literal or a named constant"
            )
    return failures


def main() -> int:
    failures = findings(REPO_ROOT)
    if failures:
        for failure in failures:
            print(failure)
        print(f"{len(failures)} unbounded memo(s) in src/repro/")
        return 1
    print("memo bounds OK (src/repro/)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
