"""Package hygiene, read off the source with ast: no unused imports, and an
``__all__`` that is exactly what the package imports."""

import ast
from pathlib import Path

import pytest

import chapgas

SRC = Path(chapgas.__file__).resolve().parent
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def imported_names(tree: ast.Module) -> list[str]:
    """The names that the module's import statements bind, in order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = parse(name)
    # a name is used when it is read, as itself or as the base of an attribute
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in imported_names(tree) if n not in used]
    assert unused == [], f"{name} imports {unused} and never uses them"


def test_all_is_sorted_unique_and_what_init_imports():
    tree = parse("__init__.py")
    exported = chapgas.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported_names(tree))
