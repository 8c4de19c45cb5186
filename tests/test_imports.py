"""Every name a module of the package imports is used in that module.

Refactors tend to leave imports behind; this catches them with the standard
library's ``ast``.  ``__init__.py`` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdfinsler"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _names_in(node: ast.AST) -> set[str]:
    """Names read anywhere under ``node``, string annotations included."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                names |= _names_in(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, ``__future__`` aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return sorted(imported - _names_in(tree))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = ("from typing import Callable, Union\nimport numpy as np\n"
              "def f(x: 'Callable') -> None:\n    return None\n")
    assert unused_imports(source) == ["Union", "np"]
