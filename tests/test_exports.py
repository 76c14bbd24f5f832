"""Exported names: every `__all__` entry resolves, and the package re-exports
each name from the module that defines it."""

import importlib
import inspect
import pkgutil

import pytest

import addspline

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(addspline.__path__) if info.name != "__main__"
)


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
