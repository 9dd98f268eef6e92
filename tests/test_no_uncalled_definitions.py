"""Every public definition in ``src/repro`` has a caller outside tests.

An AST scan: each public top-level ``def`` / ``class`` must be named
somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``bench/``
other than its own definition and a package ``__init__`` re-export. A
name counts as an identifier, an attribute, an import or a string equal
to it (``bench/`` wraps methods by name), or as a part of a catalog
path ``"package.module:Qual.name"`` (the CCA registry and the element
catalog name their classes so). A definition that only its tests call
is code nobody uses: give it a caller or delete it.
"""

import ast
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(REPO, "src", "repro")
CALLER_DIRS = ("src", "benchmarks", "examples", "bench")
CATALOG_PATH = re.compile(r"[\w.]+:[\w.]+")

#: ``module path :: name`` -> why it may have no caller outside tests.
ALLOWED = {
    "fuzz/corpus.py::check_entry":
        "the regression harness: tests/test_corpus.py and CI's corpus "
        "replay run every committed entry through it",
}


def python_files(root):
    for folder, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), filename=path)


def public_definitions():
    """``(path, name, first line, last line)`` per public top-level
    definition in the package."""
    for path in python_files(SOURCE):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node.name, node.lineno, node.end_lineno


def names_used():
    """name -> ``[(path, line), ...]`` of every mention outside an
    ``__init__``."""
    used = {}
    for folder in CALLER_DIRS:
        for path in python_files(os.path.join(REPO, folder)):
            if os.path.basename(path) == "__init__.py":
                continue
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                line = getattr(node, "lineno", 0)
                used.setdefault(name, []).append((path, line))
                if CATALOG_PATH.fullmatch(name):
                    for part in name.partition(":")[2].split("."):
                        used.setdefault(part, []).append((path, line))
    return used


def uncalled_definitions():
    """``module path :: name`` of each public definition with no
    caller."""
    used = names_used()
    uncalled = set()
    for path, name, first, last in public_definitions():
        callers = [(where, line) for where, line in used.get(name, ())
                   if not (where == path and first <= line <= last)]
        if not callers:
            uncalled.add(f"{os.path.relpath(path, SOURCE)}::{name}")
    return uncalled


def test_every_public_definition_has_a_caller():
    uncalled = sorted(uncalled_definitions() - set(ALLOWED))
    assert uncalled == [], (
        f"public definitions nothing outside tests/ names: {uncalled}")


def test_every_allowed_definition_still_has_no_caller():
    """An entry whose definition gained a caller, or was deleted,
    leaves the allow-list."""
    assert set(ALLOWED) <= uncalled_definitions()
