"""The library's public surface: the README tour runs as written, the
package exports exactly what its modules export, every name a module
exports has a caller in the package or the benchmark, every name a module
imports is read there, the package imports only a pinned set of outside
modules, only the library's edges read coordinates, only edge reports
subtract indices, vertex collections are read as built, and only cli.main
writes an artifact."""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library tour)", "exec"), {})


def test_package_surface_is_the_modules_surface():
    # The package re-exports every module's __all__, in file order, and adds
    # only its version, so a name is declared public in its module alone.
    import starfact

    paths = sorted((ROOT / "src" / "starfact").glob("*.py"))
    modules = [import_module(f"starfact.{p.stem}") for p in paths if p.stem != "__init__"]
    expected = [name for m in modules for name in getattr(m, "__all__", ())] + ["__version__"]
    assert starfact.__all__ == expected
    assert len(set(expected)) == len(expected)


def _reads(tree, skip=None):
    """The names tree reads, as loaded names and attributes, outside the
    statement skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _defines(stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    if isinstance(stmt, ast.Assign):
        return any(getattr(t, "id", None) == name for t in stmt.targets)
    return False


def test_every_export_has_a_caller():
    # __init__ only re-exports, so a name it names is not thereby used; the
    # tests are not callers either, since an API kept for them alone belongs
    # with them.
    modules = {
        p: ast.parse(p.read_text())
        for p in sorted((ROOT / "src" / "starfact").glob("*.py"))
        if p.name != "__init__.py"
    }
    reads = {p: _reads(tree) for p, tree in modules.items()}
    bench = set().union(
        *(_reads(ast.parse(p.read_text())) for p in sorted((ROOT / "perfbench").glob("*.py")))
    )
    unused = []
    for path, tree in modules.items():
        exports = [
            name
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and _defines(stmt, "__all__")
            for name in ast.literal_eval(stmt.value)
        ]
        for name in exports:
            (definition,) = [stmt for stmt in tree.body if _defines(stmt, name)]
            callers = [other for other in modules if other != path and name in reads[other]]
            if not (callers or name in bench or name in _reads(tree, skip=definition)):
                unused.append(f"{path.name}: {name}")
    assert not unused, unused


def test_every_import_is_read():
    # A name a module imports must be read somewhere in that module; a
    # __future__ import is a compiler directive, not a name.
    unread = []
    for path in sorted((ROOT / "src" / "starfact").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads:
                        unread.append(f"{path.name}: {name}")
    assert not unread, unread


def test_outside_imports_are_pinned():
    # Importing starfact imports every module, so an added import costs
    # every process that uses the package at start-up; add one here on
    # purpose or not at all.  Imports within the package cost nothing more.
    imported = set()
    for path in sorted((ROOT / "src" / "starfact").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    assert imported == {
        "__future__",
        "argparse",
        "collections",
        "dataclasses",
        "functools",
        "gc",
        "itertools",
        "json",
        "math",
        "operator",
        "sys",
    }


def test_coordinates_are_read_only_at_the_edges():
    # index_of turns coordinates into vertex indices.  Only the groups
    # themselves, the JSON loader and the explicit constructions, which
    # write their edges in coordinates, may call it; search, starters,
    # cayley and the CLI work on indices alone.
    readers = []
    for path in sorted((ROOT / "src" / "starfact").glob("*.py")):
        if "index_of" in _reads(ast.parse(path.read_text())):
            readers.append(path.name)
    assert readers == ["constructions.py", "groups.py", "serialize.py"]


def test_differences_are_read_only_for_edges():
    # A subgroup's closure builds its coset index, so membership and
    # legality are coset lookups.  Only the modules that report an edge's
    # difference, cayley's illegal-edge message and the starter scan, may
    # subtract indices with difference.
    readers = []
    for path in sorted((ROOT / "src" / "starfact").glob("*.py")):
        if "difference" in _reads(ast.parse(path.read_text())):
            readers.append(path.name)
    assert readers == ["cayley.py", "starters.py"]


def test_vertex_collections_are_read_as_built():
    # Subgroup elements and Omega are built once, as ascending tuples, and
    # membership is a coset lookup: no module sorts either again, and only
    # groups names frozenset, for its involution lookup.
    sorts, sets = [], []
    for path in sorted((ROOT / "src" / "starfact").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted":
                read = {a.attr for a in node.args if isinstance(a, ast.Attribute)}
                if read & {"omega", "elements"}:
                    sorts.append(path.name)
        if "frozenset" in _reads(tree):
            sets.append(path.name)
    assert sorts == []
    assert sets == ["groups.py"]


def test_only_main_writes_in_the_cli():
    # Each subcommand returns its payload, exit code and model; main alone
    # encodes the artifact and writes it and the edge list.
    tree = ast.parse((ROOT / "src" / "starfact" / "cli.py").read_text())
    writers = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "_write_parts",
                "canonical_parts",
            ):
                writers.add(getattr(stmt, "name", None))
    assert writers == {"main"}
