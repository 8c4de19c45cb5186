"""Every private helper of the package is used somewhere else in it.

Each module-level private function or class, and each private method, of
``src/spdfinsler`` must be referenced in the package outside its own
definition: refactors tend to leave a helper behind with no caller.  The
check reads names only, with the standard library's ``ast``: a name read
anywhere counts, as a plain name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdfinsler"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    """The module's private functions and classes, and the private methods
    of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and _private(node.name):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body
                      if isinstance(item, kinds[:2]) and _private(item.name)]
    return found


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name the module reads, as a plain name or an attribute, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
    return found


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private definition that no line of the
    sources outside the definition itself refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = {module: references(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for node in private_definitions(tree):
            used = any(name == node.name and (other != module
                                              or not node.lineno <= line <= node.end_lineno)
                       for other, names in uses.items() for name, line in names)
            if not used:
                dead.append(f"{module}:{node.name}")
    return dead


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []


@pytest.mark.parametrize("source, dead", [
    ("def _helper():\n    return _helper()\n", ["m.py:_helper"]),
    ("class _Box:\n    def _unused(self):\n        pass\n    def _used(self):\n"
     "        pass\n_Box()._used()\n", ["m.py:_unused"]),
    ("def _a():\n    pass\ndef f():\n    return _a()\n", []),
])
def test_detects_an_unreferenced_helper(source, dead):
    assert unreferenced({"m.py": source}) == dead
