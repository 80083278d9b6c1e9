"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import pshodge

MODULES = ["pshodge"] + [f"pshodge.{info.name}"
                         for info in pkgutil.iter_modules(pshodge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing
