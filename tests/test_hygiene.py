"""Every imported name is used in its module, and every private function
of the package is used somewhere.

A stdlib ``ast`` scan over the package and the test modules: an import
binding a name that the module never reads fails here.  Names listed in
``__all__`` count as used (re-exports), and ``__future__`` imports are
skipped.  A top-level ``_private`` function of the package fails when no
statement of the package or the tests other than its own definition names
it, as a bare name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "invclt").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    )
    assert unused == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import y, z\n__all__ = ['z']\nnp.zeros(1)\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == ["os", "y"]


def names_read(node: ast.AST) -> set[str]:
    """Bare names and attribute names anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def dead_private_functions(package: list[ast.Module], others: list[ast.Module]) -> list[str]:
    """Top-level ``_private`` functions of ``package`` that no other statement names."""
    statements = [(node, names_read(node)) for tree in package + others for node in tree.body]
    dead = []
    for tree in package:
        for node in tree.body:
            if not (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            if not any(node.name in names for other, names in statements if other is not node):
                dead.append(node.name)
    return sorted(dead)


def test_every_private_function_is_used():
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))

    tests = [parse(path) for path in MODULES if path not in PACKAGE]
    assert dead_private_functions([parse(path) for path in PACKAGE], tests) == []


def test_scan_flags_an_unused_private_function():
    package = ast.parse(
        "def _used():\n    pass\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "def _dead():\n    pass\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _used()\n"
        "def _by_attribute():\n    pass\n"
    )
    tests = ast.parse("import mod\nmod._by_attribute()\n")
    assert dead_private_functions([package], [tests]) == ["_dead", "_recursive"]
