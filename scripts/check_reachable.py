#!/usr/bin/env python
"""Fail the lint stage on a module under ``src/repro/`` that nothing runs.

A package ``__init__`` that re-exports a module keeps it importable and
tested, but does not make anything *use* it: six such modules (a geohash,
a hex grid, an R-tree, a particle filter, an OSM serializer, a navigation
session) once sat in the tree, imported on every start, with no service,
experiment or workload calling them.  This check walks the import graph
from every entry point and names each module the walk never reaches.

The entry points are every ``.py`` file under ``benchmarks/``,
``perfbench/``, ``scripts/`` and ``examples/`` (test directories left out)
and every ``src/repro/**/__main__.py``.  A module counts as reached when a
reached module other than its own package ``__init__`` imports it; imports
inside functions count.  ``from pkg import Name`` resolves through
``pkg/__init__`` to the submodule that defines ``Name``.  Importing a module
runs its parent packages' ``__init__``, so those are reached with it.

``ALLOWED`` names the modules kept on purpose although nothing reaches them,
each with its reason.

Standalone use: ``python scripts/check_reachable.py`` (exit 0 clean, exit 1
with one ``path: reason`` per finding otherwise).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

ENTRY_DIRECTORIES = ("benchmarks", "perfbench", "scripts", "examples")

ALLOWED = {
    "src/repro/osm/validation.py": "the structural check tests/test_worldgen.py runs on every generated world",
}

_UNREACHED = "no entry point reaches it (only its package __init__ or nothing imports it)"


def _modules(root: Path) -> dict[str, Path]:
    """Dotted name -> file for every module of ``root/src/repro``."""
    modules = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _imports(path: Path, package: str) -> list[tuple[str, list[str]]]:
    """``(module, names)`` for every import statement in ``path``; ``names``
    is empty for ``import module``.  ``package`` anchors relative imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level:
                anchor = package.split(".")
                base = anchor[: len(anchor) - node.level + 1] + base
            found.append((".".join(base), [alias.name for alias in node.names]))
    return found


class _Graph:
    def __init__(self, root: Path):
        self.modules = _modules(root)
        self.imports = {
            name: _imports(path, name if path.name == "__init__.py" else name.rpartition(".")[0])
            for name, path in self.modules.items()
        }

    def defining_module(self, module: str, name: str) -> str:
        """The module ``from module import name`` ends up running: the
        submodule ``name`` itself, or the one a package ``__init__`` took
        ``name`` from, followed through further re-exports."""
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        if self.modules.get(module, Path()).name == "__init__.py":
            for source, names in self.imports[module]:
                if name in names and source.startswith(module + ".") and source in self.modules:
                    return self.defining_module(source, name)
        return module

    def targets(self, imports: list[tuple[str, list[str]]], importer: str | None = None) -> set[str]:
        """The modules ``imports`` reach, an ``__init__``'s own submodules left out."""
        reached = set()
        for module, names in imports:
            reached.update(self.defining_module(module, name) for name in names)
            if not names:
                reached.add(module)
        reached &= self.modules.keys()
        if importer is not None and self.modules[importer].name == "__init__.py":
            reached = {module for module in reached if not module.startswith(importer + ".")}
        return reached


def entry_points(root: Path) -> list[Path]:
    """Every non-test ``.py`` file under the entry directories, and every
    ``__main__.py`` under ``src/repro``."""
    paths = [
        path
        for directory in ENTRY_DIRECTORIES
        for path in sorted((root / directory).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]
    return paths + sorted((root / "src" / "repro").rglob("__main__.py"))


def unreached(root: Path) -> list[str]:
    """Paths, relative to ``root``, of the modules no entry point reaches."""
    graph = _Graph(root)
    pending = {name for name, path in graph.modules.items() if path.name == "__main__.py"}
    for path in entry_points(root):
        pending |= graph.targets(_imports(path, ""))
    reached: set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        package = module.rpartition(".")[0]
        if package in graph.modules:
            pending.add(package)
        pending |= graph.targets(graph.imports[module], importer=module) - reached
    return [str(graph.modules[name].relative_to(root)) for name in sorted(graph.modules.keys() - reached)]


def findings(root: Path) -> list[str]:
    """``path: reason`` for every unreached module not in ``ALLOWED``."""
    return [f"{path}: {_UNREACHED}" for path in unreached(root) if path not in ALLOWED]


def main() -> int:
    failures = findings(REPO_ROOT)
    if failures:
        for failure in failures:
            print(failure)
        print(f"{len(failures)} unreached module(s) in src/repro/")
        return 1
    print(f"module reachability OK (src/repro/; {len(ALLOWED)} allowlisted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
