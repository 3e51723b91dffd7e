"""Every name a module exports resolves, so no stale export outlives its code."""

import importlib

import pytest

MODULES = ("qsim", "states", "attack", "protocol", "bell", "rdm")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"qss.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"qss.{name}.__all__ lists missing {export!r}"
    namespace = {}
    exec(f"from qss.{name} import *", namespace)
