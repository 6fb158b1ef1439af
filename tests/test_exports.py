"""Every name a module exports through ``__all__`` resolves."""
import importlib
import pkgutil

import pytest

import poismoe as pm

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(pm.__path__))


def test_package_exports_resolve():
    assert [name for name in pm.__all__ if not hasattr(pm, name)] == []
    assert len(set(pm.__all__)) == len(pm.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"poismoe.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
