"""The package holds only the engine: every function, method and class that
src/affcluster defines is used outside its own definition, in src/affcluster
or in bench/, or is exported in affcluster.__all__.  Test-only references
live in tests/reference.py."""

import ast
from collections import Counter
from pathlib import Path

import affcluster

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "affcluster").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Only tests call it, but it is theta's one use of poly.substitute, which
# bench/test_bench.py requires theta to import.
ALLOWED = {"specialize_coefficient_free"}


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _used_names(tree):
    """The ast.Name ids and ast.Attribute attrs in tree; imports and
    docstrings hold neither."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_in_src_is_used_or_exported():
    src = _parse(SRC)
    trees = list(src.values()) + list(_parse(BENCH).values())
    uses = Counter(name for tree in trees for name in _used_names(tree))
    exempt = set(affcluster.__all__) | ALLOWED
    defined = 0
    unused = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined += 1
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            # main dispatches to the cmd_* handlers through globals()
            if dunder or name.startswith("cmd_") or name in exempt:
                continue
            if uses[name] == Counter(_used_names(node))[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert defined > 100
    assert unused == []


def test_no_src_module_imports_fractions():
    # the broken-line endpoint, the last rational, is an integer point
    importers = set()
    for path, tree in _parse(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                importers.add(path.name)
            elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
                importers.add(path.name)
    assert importers == set()
