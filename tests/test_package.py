"""Package hygiene, read off the source with ast: no unused imports, and an
``__all__`` that is exactly what the package imports, at once or on first
use. Also: every binding that perfbench's tracer wraps resolves."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chapgas

SRC = Path(chapgas.__file__).resolve().parent
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def imported_names(tree: ast.Module, relative: bool = False) -> list[str]:
    """The names that the module's import statements bind, in order; with
    relative, only those imported from the package's own modules."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and not relative:
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level or not relative:
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
    # what __init__ imports from its modules, and the names it loads on first
    # use: each once, each defined by the module it is listed under
    eager = imported_names(tree, relative=True)
    lazy = [name for names in chapgas._LAZY.values() for name in names]
    assert len(set(eager + lazy)) == len(eager) + len(lazy)
    assert set(exported) == set(eager) | set(lazy)
    for module, names in chapgas._LAZY.items():
        mod = importlib.import_module(f"chapgas.{module}")
        assert all(hasattr(mod, name) for name in names), module


ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_tracer_binding_resolves_on_a_fresh_import():
    # perfbench wraps each layer where its caller looks it up; a binding that
    # no longer resolves turns that layer's metrics into missing ones
    bindings = [[module, attr] for _, module, attr, _ in tracer.BINDINGS]
    code = (
        "import importlib, json, sys\n"
        "missing = []\n"
        "for module, attr in json.loads(sys.argv[1]):\n"
        "    if not callable(getattr(importlib.import_module(module), attr, None)):\n"
        "        missing.append(module + '.' + attr)\n"
        "print(json.dumps(missing))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(bindings)], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert json.loads(proc.stdout) == []
