"""Every ``ptlind`` module's ``__all__`` names only what the module defines, so that
``from ptlind.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import ptlind

MODULES = ["ptlind"] + [
    f"ptlind.{info.name}" for info in pkgutil.iter_modules(ptlind.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    names = getattr(importlib.import_module(module), "__all__", [])
    assert [name for name in names if name not in namespace] == []
