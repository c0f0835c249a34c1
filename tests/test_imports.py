"""Static hygiene of the package, checked with the standard library's ast only.

Every name a module imports is used in that module (__init__.py re-exports
by design and is left out), and every entry of pathode.__all__ resolves and
appears once, in sorted order, with no module among them.
"""

import ast
import pathlib
import types

import pytest

import pathode

SRC = pathlib.Path(pathode.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_sees_an_unused_import():
    src = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system.argv, tau)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_resolves_and_is_unique():
    names = pathode.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(pathode, n)] == []
    assert [n for n in names if isinstance(getattr(pathode, n), types.ModuleType)] == []
    assert [n for n in names if n.startswith("_")] == []
