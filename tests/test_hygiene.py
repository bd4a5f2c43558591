"""Every imported name is used in its module, and every name the package
defines is read by a program path.

A stdlib ``ast`` scan over the package and the test modules: an import
binding a name that the module never reads fails here.  Names listed in
``__all__`` count as used (re-exports), and ``__future__`` imports are
skipped.

Every top-level function of the package, private or public, every public
class, constant and method of a public class must be named, as a bare name
or as an attribute, by a statement of a program path (the package or the
benchmark) other than its own definition.  The tests alone keep no name
alive: what only they run belongs in ``tests/oracles.py``.

The package root exports only what is read off it (``invclt.<name>`` or
``from invclt import <name>``) in the tests, the benchmark or the README,
every exception class is raised somewhere in the package, directly or
through a subclass, and every class below the root is named by an ``except``
clause of ``cli.main``, so each failure reaches its own exit code.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "invclt").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


def is_program_path(path: Path) -> bool:
    """The package and the benchmark run in programs; the tests do not."""
    return path.parent in (ROOT / "src" / "invclt", ROOT / "perfbench")


def parse_all() -> dict[Path, ast.Module]:
    """Every module of the package, the tests and the benchmark, by path."""
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + BENCHMARK}


def dead_private_functions(package: list[ast.Module], modules: dict[Path, ast.Module]) -> list[str]:
    """Top-level ``_private`` functions of ``package`` that no other statement
    of a program path among ``modules`` names."""
    statements = [
        (node, names_read(node))
        for path, tree in modules.items()
        if is_program_path(path)
        for node in tree.body
    ]
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
    modules = parse_all()
    assert dead_private_functions([modules[path] for path in PACKAGE], modules) == []


def test_scan_flags_an_unused_private_function():
    package = ast.parse(
        "def _used():\n    pass\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "def _dead():\n    pass\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _used()\n"
        "def _by_attribute():\n    pass\n"
        "def _test_only():\n    pass\n"
    )
    modules = {
        ROOT / "src" / "invclt" / "mod.py": package,
        ROOT / "perfbench" / "bench.py": ast.parse("import mod\nmod._by_attribute()\n"),
        ROOT / "tests" / "test_mod.py": ast.parse("import mod\nmod._test_only()\n"),
    }
    assert dead_private_functions([package], modules) == ["_dead", "_recursive", "_test_only"]


def statements(tree: ast.Module) -> list[ast.AST]:
    """Top-level statements, with each class split into its bases and its
    body statements: a subclass reads its base."""
    out = []
    for node in tree.body:
        out += node.bases + node.body if isinstance(node, ast.ClassDef) else [node]
    return out


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each public top-level function, class and constant,
    and of each public method of a public class as ``Class.method``."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            out += [
                (t.id, node)
                for t in node.targets
                if isinstance(t, ast.Name) and not t.id.startswith("_")
            ]
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{sub.name}", sub)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
            ]
    return out


def unread_public_names(package: list[ast.Module], modules: dict[Path, ast.Module]) -> list[str]:
    """Public definitions of ``package`` that no statement of a program path
    among ``modules``, outside their own definition, names as a bare name or
    as an attribute."""
    units = [
        (node, names_read(node))
        for path, tree in modules.items()
        if is_program_path(path)
        for node in statements(tree)
    ]
    unread = []
    for tree in package:
        for name, node in public_definitions(tree):
            own = node.body if isinstance(node, ast.ClassDef) else [node]
            key = name.rsplit(".", 1)[-1]
            if not any(key in names for unit, names in units if not any(unit is o for o in own)):
                unread.append(name)
    return sorted(unread)


def test_every_public_name_is_read_by_a_program_path():
    modules = parse_all()
    assert unread_public_names([modules[path] for path in PACKAGE], modules) == []


def test_scan_flags_an_unread_public_name():
    package = ast.parse(
        "def used():\n    return Kept().read()\n"
        "def recursive(k):\n    return recursive(k - 1)\n"
        "def _private():\n    pass\n"
        "class Root:\n    pass\n"
        "class Kept(Root):\n"
        "    def read(self):\n        return self.helper()\n"
        "    def helper(self):\n        pass\n"
        "    def unread(self):\n        return self.unread()\n"
        "    def __call__(self):\n        pass\n"
        "class Lonely:\n"
        "    def make(self):\n        return Lonely()\n"
        "def test_only():\n    pass\n"
        "SIZE = 4\n"
        "LIMIT = _CAP = 3\n"
    )
    modules = {
        ROOT / "src" / "invclt" / "mod.py": package,
        ROOT / "perfbench" / "bench.py": ast.parse("import mod\nmod.used(mod.SIZE)\n"),
        ROOT / "tests" / "test_mod.py": ast.parse("import mod\nmod.test_only(mod.LIMIT)\n"),
    }
    assert unread_public_names([package], modules) == [
        "Kept.unread", "LIMIT", "Lonely", "Lonely.make", "recursive", "test_only"
    ]


def root_exports() -> list[str]:
    """The ``__all__`` list of the package root."""
    tree = ast.parse((ROOT / "src" / "invclt" / "__init__.py").read_text())
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    return ast.literal_eval(value)


def names_read_off_root(tree: ast.Module) -> set[str]:
    """Names read as ``invclt.<name>`` or imported by ``from invclt import <name>``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "invclt" and not node.level:
            out |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "invclt"
        ):
            out.add(node.attr)
    return out


def test_every_root_export_is_read_outside_the_package():
    read = set()
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        read |= names_read_off_root(ast.parse(path.read_text(), filename=str(path)))
    readme = (ROOT / "README.md").read_text()
    read |= set(re.findall(r"\binvclt\.(\w+)", readme))
    for line in re.findall(r"from invclt import ([^\n]+)", readme):
        read |= {part.split()[0] for part in line.split(",")}
    assert [name for name in root_exports() if name not in read] == []


def error_bases(errors: ast.Module) -> dict[str, set[str]]:
    """Each class of ``errors`` -> the names of its bases."""
    return {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in errors.body
        if isinstance(node, ast.ClassDef)
    }


def unraised_error_classes(errors: ast.Module, package: list[ast.Module]) -> list[str]:
    """Classes of ``errors`` that no ``raise`` of ``package`` names, directly or
    through a subclass."""
    bases = error_bases(errors)
    raised = set()
    for tree in package:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    covered = set()
    while raised - covered:
        covered |= raised
        raised |= {base for name in covered for base in bases.get(name, ())}
    return sorted(set(bases) - covered)


def test_every_error_class_is_raised():
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))

    errors = parse(ROOT / "src" / "invclt" / "errors.py")
    assert unraised_error_classes(errors, [parse(path) for path in PACKAGE]) == []


def test_scan_flags_an_unraised_error_class():
    errors = ast.parse(
        "class Base(Exception):\n    pass\n"
        "class Mid(Base):\n    pass\n"
        "class Leaf(Mid):\n    pass\n"
        "class Unused(Base):\n    pass\n"
        "class Bare(Exception):\n    pass\n"
    )
    package = ast.parse("def f(x):\n    if x:\n        raise Leaf('x')\n    raise Bare\n")
    assert unraised_error_classes(errors, [package]) == ["Unused"]


def uncaught_error_classes(errors: ast.Module, cli: ast.Module) -> list[str]:
    """Classes of ``errors``, other than a root (one with no base in
    ``errors``), that no ``except`` clause of ``cli``'s ``main`` names."""
    bases = error_bases(errors)
    (main,) = (node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {
        sub.id
        for node in ast.walk(main)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for sub in ast.walk(node.type)
        if isinstance(sub, ast.Name)
    }
    return sorted(name for name, base in bases.items() if base & set(bases) and name not in caught)


def test_every_error_class_has_its_own_exit_code():
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))

    errors = parse(ROOT / "src" / "invclt" / "errors.py")
    assert uncaught_error_classes(errors, parse(ROOT / "src" / "invclt" / "cli.py")) == []


def test_scan_flags_an_uncaught_error_class():
    errors = ast.parse(
        "class Base(Exception):\n    pass\n"
        "class Bad(Base):\n    pass\n"
        "class Broken(Base):\n    pass\n"
        "class Leaf(Bad):\n    pass\n"
        "class Elsewhere(Base):\n    pass\n"
    )
    cli = ast.parse(
        "def helper():\n    try:\n        pass\n    except Elsewhere:\n        pass\n"
        "def main():\n    try:\n        pass\n"
        "    except Broken:\n        return 3\n"
        "    except (Bad, OSError):\n        return 2\n"
    )
    assert uncaught_error_classes(errors, cli) == ["Elsewhere", "Leaf"]
