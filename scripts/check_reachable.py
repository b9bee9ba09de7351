#!/usr/bin/env python
"""Fail the lint stage on a module under ``src/repro/`` that nothing runs,
or on an import that reaches *up* the layer map.

Reachability.  A package ``__init__`` that re-exports a module keeps it
importable and tested, but does not make anything *use* it: six such
modules (a geohash, a hex grid, an R-tree, a particle filter, an OSM
serializer, a navigation session) once sat in the tree, imported on every
start, with no service, experiment or workload calling them.  This check
walks the import graph from every entry point and names each module the
walk never reaches.

The entry points are every ``.py`` file under ``benchmarks/``,
``perfbench/``, ``scripts/`` and ``examples/`` (test directories left out)
and every ``src/repro/**/__main__.py``.  A module counts as reached when a
reached module other than its own package ``__init__`` imports it; imports
inside functions count.  ``from pkg import Name`` resolves through
``pkg/__init__`` to the submodule that defines ``Name``.  Importing a module
runs its parent packages' ``__init__``, so those are reached with it.

``ALLOWED`` names the modules kept on purpose although nothing reaches them,
each with its reason.

Layering.  ``LAYERS`` lists the packages of ``src/repro/`` top first; a
module of one package may import another package only if that package
comes later in ``LAYERS``.  An import is charged to the package its
statement names, because that is the ``__init__`` Python runs: ``from
repro.churn import RetryPolicy`` reaches ``churn`` wherever ``RetryPolicy``
is defined.  Imports under ``if TYPE_CHECKING:`` and inside functions
count, relative ones resolve first, a package missing from ``LAYERS`` is a
finding, and only the root ``repro/__init__`` is exempt.

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

LAYERS = (
    "workload",
    "autoscale",
    "operator",
    "faults",
    "churn",
    "control",
    "telemetry",
    "worldgen",
    "core",
    "centralized",
    "services",
    "discovery",
    "mapserver",
    "dns",
    "routing",
    "localization",
    "tiles",
    "osm",
    "spatialindex",
    "geometry",
    "simulation",
)
"""The packages of ``src/repro/``, top first (``docs/ARCHITECTURE.md`` §
Layer map draws the same order)."""

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


def _named_packages(graph: _Graph, module: str, names: list[str]) -> list[str]:
    """The top-level packages an import of ``names`` from ``module`` names;
    ``"repro"`` for the root package itself."""
    parts = module.split(".")
    if parts[0] != "repro":
        return []
    if len(parts) > 1:
        return [parts[1]]
    return [name if f"repro.{name}" in graph.modules else "repro" for name in names] or ["repro"]


def layer_findings(root: Path) -> list[str]:
    """``path: reason`` for every package of ``root/src/repro`` missing from
    ``LAYERS`` and every import statement that names a package at or above
    the importer's own."""
    graph = _Graph(root)
    rank = {package: index for index, package in enumerate(LAYERS)}
    rank["repro"] = -1
    packages = {name.split(".")[1] for name in graph.modules if name != "repro"}
    failures = [f"src/repro/{package}: package missing from LAYERS" for package in sorted(packages - rank.keys())]
    for module, imports in sorted(graph.imports.items()):
        package = module.partition(".")[2].partition(".")[0]
        if package not in rank:  # the root __init__, or a package reported above
            continue
        for target, names in imports:
            for named in _named_packages(graph, target, names):
                if named != package and rank.get(named, len(LAYERS)) < rank[package]:
                    path = graph.modules[module].relative_to(root)
                    failures.append(f"{path}: imports {target}, and {named} is not below {package} in LAYERS")
    return failures


def main() -> int:
    unreached_failures = findings(REPO_ROOT)
    layer_failures = layer_findings(REPO_ROOT)
    for failure in unreached_failures + layer_failures:
        print(failure)
    if unreached_failures:
        print(f"{len(unreached_failures)} unreached module(s) in src/repro/")
    if layer_failures:
        print(f"{len(layer_failures)} layering finding(s) in src/repro/")
    if unreached_failures or layer_failures:
        return 1
    print(f"module reachability and layering OK (src/repro/; {len(ALLOWED)} allowlisted, {len(LAYERS)} layers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
