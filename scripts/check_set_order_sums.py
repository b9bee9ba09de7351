#!/usr/bin/env python
"""Fail the lint stage on a float sum whose order follows ``PYTHONHASHSEED``.

A set of ``str`` iterates in an order fixed by per-process string hashing,
and float addition is not associative — so ``sum(f(x) for x in some_set)``
can round differently from one process to the next, and a run stops being
"deterministic for a seed".  That is how beacon localization came to depend
on the hash seed (``set(observed) & set(reference)`` in
``localization/fingerprint.py``).  The byte-gated artifacts catch such a sum
only if it reaches an artifact, and only because CI never pins
``PYTHONHASHSEED``; this check names the shape itself.

Flagged, anywhere under ``src/repro/``: ``sum(...)`` or ``math.fsum(...)``
whose argument is a generator or comprehension iterating over

* a ``set(...)`` / ``frozenset(...)`` call, a set display or a set
  comprehension;
* a ``&`` / ``|`` / ``-`` / ``^`` of those;
* a local name assigned from one of those in the same function.

``len(s)``, ``sorted(s)``, membership tests and integer counts over a set do
not depend on its order, so a comprehension whose element is a ``len(...)``
call, an integer literal or a comparison (a bool) is not flagged; iterate
``sorted(s)`` (or an ordered container) when summing floats.

A second rule covers the simulation layer, whose accumulators feed the
byte-gated stats: under ``src/repro/simulation/`` any reassociating float
reduction is flagged — ``np.sum`` / ``numpy.sum`` and every other ``.sum()``
method call, ``np.add.reduce`` and ``math.fsum``.  Each may round
differently from the left-to-right sum a per-item loop makes (numpy sums
pairwise, ``fsum`` exactly); fold left to right instead, with a loop or
``np.add.accumulate`` / ``np.cumsum``.

Standalone use: ``python scripts/check_set_order_sums.py`` (exit 0 clean,
exit 1 with one ``path:line`` per finding otherwise).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_set(node: ast.expr, set_names: set[str]) -> bool:
    """True if ``node`` is, on its face, a set-valued expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _is_set(node.left, set_names) or _is_set(node.right, set_names)
    return isinstance(node, ast.Name) and node.id in set_names


def _is_sum(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("sum", "fsum")
    return isinstance(func, ast.Attribute) and func.attr == "fsum"


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` in source order, nested functions' bodies left out."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _FUNCTIONS):
            yield from _own_nodes(child)


def _is_integer_count(element: ast.expr) -> bool:
    """True if every term is an int on its face: ``len(...)``, an integer
    literal or a comparison — integer addition is associative."""
    if isinstance(element, ast.Call):
        return isinstance(element.func, ast.Name) and element.func.id == "len"
    if isinstance(element, ast.Constant):
        return type(element.value) is int
    return isinstance(element, ast.Compare)


def _findings_in(scope: ast.AST) -> list[int]:
    """Line numbers of order-dependent sums written directly in ``scope``."""
    set_names: set[str] = set()
    lines = []
    for node in _own_nodes(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_set(node.value, set_names):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                set_names.update(target.id for target in targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.Call) and _is_sum(node) and node.args:
            argument = node.args[0]
            if (
                isinstance(argument, _COMPREHENSIONS)
                and not _is_integer_count(argument.elt)
                and any(_is_set(generator.iter, set_names) for generator in argument.generators)
            ):
                lines.append(node.lineno)
    return lines


_SET_ORDER = "sum over a set: its float rounding follows PYTHONHASHSEED; iterate an ordered container"
_REASSOCIATING = (
    "reassociating float reduction in the simulation layer: "
    "fold left to right (a loop, np.add.accumulate or np.cumsum)"
)


def _is_reassociating(node: ast.Call) -> bool:
    """``x.sum(...)`` (``np.sum`` included), ``np.add.reduce(...)`` or ``fsum(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "fsum"
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("sum", "fsum"):
        return True
    return func.attr == "reduce" and isinstance(func.value, ast.Attribute) and func.value.attr == "add"


def findings(root: Path) -> list[str]:
    """``path:line: message`` for every flagged sum under ``root/src/repro``."""
    failures: list[str] = []
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
        flagged = {line: _SET_ORDER for scope in scopes for line in _findings_in(scope)}
        if path.is_relative_to(package / "simulation"):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _is_reassociating(node):
                    flagged.setdefault(node.lineno, _REASSOCIATING)
        failures.extend(f"{path.relative_to(root)}:{line}: {flagged[line]}" for line in sorted(flagged))
    return failures


def main() -> int:
    failures = findings(REPO_ROOT)
    if failures:
        for failure in failures:
            print(failure)
        print(f"{len(failures)} order-dependent sum(s) in src/repro/")
        return 1
    print("order-dependent sums OK (src/repro/)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
