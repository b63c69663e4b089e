"""Source hygiene of the package, read from its syntax trees.

Code nothing calls is deleted: every private module-level function,
class or constant is referenced somewhere in ``src/`` outside its own
definition, and every name a module imports (``__init__`` excepted,
whose imports are the public surface) is used in that module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seriescert"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used(nodes) -> set[str]:
    """Every name read (as a name, an attribute or an import) under nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


PRIVATE = [
    pytest.param(module, name, node, id=f"{module}:{name}")
    for module, tree in TREES.items()
    for node in tree.body
    for name in _defined(node)
    if name.startswith("_") and not name.startswith("__")
]


@pytest.mark.parametrize("module, name, node", PRIVATE)
def test_every_private_name_is_referenced(module, name, node):
    elsewhere = [n for t in TREES.values() for n in t.body if n is not node]
    assert name in _used(elsewhere), f"{module}: {name} is defined but never referenced"


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= read, f"{module} imports {sorted(imported - read)} and never uses them"
