"""Exported names: every `__all__` entry resolves, the package re-exports
each name from the module that defines it, and no module imports a name it
neither uses nor exports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import addspline

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(addspline.__path__) if info.name != "__main__"
)
SOURCES = Path(addspline.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"addspline.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("attr", addspline.__all__)
def test_package_exports_come_from_their_defining_module(attr):
    obj = getattr(addspline, attr)
    home = inspect.getmodule(obj)
    assert home is not None and home.__name__.startswith("addspline.")
    assert attr in home.__all__
    assert getattr(home, attr) is obj


def test_package_exports_are_unique():
    assert len(set(addspline.__all__)) == len(addspline.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but neither uses nor lists in `__all__`."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds `a`
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported
    ]


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path) == []
