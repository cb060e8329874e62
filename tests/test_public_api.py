"""Every name the package and its modules export through __all__ resolves."""

import importlib
import pkgutil

import pytest

import besselsum

MODULES = ["besselsum"] + [
    f"besselsum.{info.name}" for info in pkgutil.iter_modules(besselsum.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)
