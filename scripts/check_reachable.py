#!/usr/bin/env python
"""Fail the lint stage on a module under ``src/repro/`` that nothing runs,
on an import that reaches *up* the layer map, or on a package name that
nothing outside the package imports through it.

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
count, relative ones resolve first, and a package missing from ``LAYERS``
is a finding.  The root ``repro/__init__`` imports nothing at all: every
import of a ``repro`` module runs it first, so anything it imported would
load into every process, whatever layer that process asked for.

Public names.  Every name can be imported from the submodule that defines
it; a package ``__init__`` re-exports one only when something outside the
package takes that second path.  So a name in ``repro.<pkg>.__all__`` must
be read through the package by a module outside ``src/repro/<pkg>/``: ``from repro.<pkg> import Name``, or
``repro.<pkg>.Name`` after ``import repro.<pkg>``.  The readers are the
``src/repro`` modules other than the ``__init__`` files (a re-export is not
a use) and the entry points; tests are not readers.  In an entry point a
string constant that spells ``repro.<pkg>.Name[.attr]`` counts too, because
``perfbench/trace.py`` resolves such strings through the package with
``importlib`` and ``getattr``.  Every ``__all__`` must also be exactly the
set of names its ``__init__`` binds.

Standalone use: ``python scripts/check_reachable.py`` (exit 0 clean, exit 1
with one ``path: reason`` per finding otherwise).
"""

from __future__ import annotations

import ast
import re
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

_UNREAD_NAME = "no module outside the package and no entry point reads it through"

_DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
"""A dotted ``repro.…`` run inside a string, as ``perfbench/trace.py`` names its targets."""


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
    ``LAYERS``, every import statement that names a package at or above the
    importer's own, and every import statement in the root ``__init__``."""
    graph = _Graph(root)
    rank = {package: index for index, package in enumerate(LAYERS)}
    rank["repro"] = -1
    packages = {name.split(".")[1] for name in graph.modules if name != "repro"}
    failures = [f"src/repro/{package}: package missing from LAYERS" for package in sorted(packages - rank.keys())]
    for module, imports in sorted(graph.imports.items()):
        if module == "repro":  # importing any repro module runs the root first
            path = graph.modules[module].relative_to(root)
            failures += [f"{path}: imports {target}, and the root package imports nothing" for target, _ in imports]
            continue
        package = module.partition(".")[2].partition(".")[0]
        if package not in rank:  # reported above
            continue
        for target, names in imports:
            for named in _named_packages(graph, target, names):
                if named != package and rank.get(named, len(LAYERS)) < rank[package]:
                    path = graph.modules[module].relative_to(root)
                    failures.append(f"{path}: imports {target}, and {named} is not below {package} in LAYERS")
    return failures


def _init_names(path: Path) -> tuple[set[str], list[str]]:
    """The names a package ``__init__`` binds at its top level, and its
    ``__all__`` (empty when it has none)."""
    bound: set[str] = set()
    declared: list[str] = []
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(statement, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in statement.names)
        elif isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
            bound.update(alias.asname or alias.name for alias in statement.names)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(statement.name)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    declared = list(ast.literal_eval(statement.value))
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound, declared


def _dotted_reads(path: Path, anchor: str, strings: bool) -> set[str]:
    """Every dotted name ``path`` reads: ``module.name`` for each name a
    ``from`` import takes, each attribute chain rooted at an imported module
    (``repro.pkg.Name.attr`` after ``import repro.pkg``) and, if ``strings``,
    each ``repro.…`` run inside a string constant.  ``anchor`` is the
    package relative imports start from."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = {f"{module}.{name}" for module, names in _imports(path, anchor) for name in names}
    modules = {
        alias.asname or alias.name.partition(".")[0]: alias.name if alias.asname else alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                reads.add(".".join([modules[node.id], *reversed(chain)]))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.update(match.group() for match in _DOTTED.finditer(node.value))
    return reads


def package_reads(root: Path) -> set[tuple[str, str]]:
    """``(package, name)`` for every name read through a package's path by
    a module outside that package.  The readers are the modules of
    ``src/repro`` other than the ``__init__`` files, and the entry points;
    string constants count in entry points only.  Tests are not readers."""
    modules = _modules(root)
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    readers = [(name, path, False) for name, path in modules.items() if path.name != "__init__.py"]
    readers += [("", path, True) for path in entry_points(root) if not path.is_relative_to(root / "src")]
    found = set()
    for reader, path, strings in readers:
        for read in _dotted_reads(path, reader.rpartition(".")[0], strings):
            parts = read.split(".")
            for cut in range(1, len(parts)):
                package = ".".join(parts[:cut])
                if package in packages and not reader.startswith(package + "."):
                    found.add((package, parts[cut]))
    return found


def name_findings(root: Path) -> list[str]:
    """``path: reason`` for every ``__all__`` name that no reader outside its
    package takes through the package's path, and every name an ``__init__``
    binds or lists in ``__all__`` but not both."""
    reads = package_reads(root)
    failures = []
    for package, path in sorted(_modules(root).items()):
        if path.name != "__init__.py":
            continue
        bound, declared = _init_names(path)
        reasons = {name: f"{_UNREAD_NAME} {package}" for name in declared if (package, name) not in reads}
        reasons.update((name, "in __all__, but the __init__ does not bind it") for name in set(declared) - bound)
        reasons.update((name, "the __init__ binds it, but __all__ omits it") for name in bound - set(declared))
        failures += [f"{path.relative_to(root)}: {name}: {reason}" for name, reason in sorted(reasons.items())]
    return failures


def main() -> int:
    unreached_failures = findings(REPO_ROOT)
    layer_failures = layer_findings(REPO_ROOT)
    name_failures = name_findings(REPO_ROOT)
    for failure in unreached_failures + layer_failures + name_failures:
        print(failure)
    if unreached_failures:
        print(f"{len(unreached_failures)} unreached module(s) in src/repro/")
    if layer_failures:
        print(f"{len(layer_failures)} layering finding(s) in src/repro/")
    if name_failures:
        print(f"{len(name_failures)} public-name finding(s) in src/repro/")
    if unreached_failures or layer_failures or name_failures:
        return 1
    names = sum(len(_init_names(path)[1]) for path in _modules(REPO_ROOT).values() if path.name == "__init__.py")
    print(
        "module reachability, layering and public names OK "
        f"(src/repro/; {len(ALLOWED)} allowlisted, {len(LAYERS)} layers; {names} public names)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
