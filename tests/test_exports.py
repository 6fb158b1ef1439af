"""Every name a module exports through ``__all__`` resolves, and importing
the package loads numpy only (scipy is a test dependency, not a runtime one)."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    src = str(Path(pm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, poismoe; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
