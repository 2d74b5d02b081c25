"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import uce_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(uce_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"uce_lab.{name}")
    missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
    assert missing == []


def test_package_all_resolves():
    assert [a for a in uce_lab.__all__ if not hasattr(uce_lab, a)] == []
