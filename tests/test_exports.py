import importlib
import pkgutil

import pytest

import multigrip

MODULES = [info.name for info in pkgutil.iter_modules(multigrip.__path__, "multigrip.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """`from <module> import *` must not name anything the module lacks."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
