"""Every name a module exports through ``__all__`` resolves, importing
the package loads numpy only (scipy is a test dependency, not a runtime one,
and multiprocessing waits for a parallel study),
no module imports a name it does not use, and none imports a private
(``_``-prefixed) name from a sibling module."""
import ast
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


def loaded_by_import(package: str) -> str:
    """The modules of ``package`` that ``import poismoe`` loads in a
    fresh interpreter, as a printed sorted list."""
    src = str(Path(pm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, poismoe; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert loaded_by_import("scipy") == "[]"


def test_import_loads_no_multiprocessing():
    # Only a parallel study (jobs > 1) needs its process pool.
    assert loaded_by_import("multiprocessing") == "[]"


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations, which the AST keeps as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            arguments = node.args
            annotations += [arg.annotation for arg in
                            arguments.posonlyargs + arguments.args
                            + arguments.kwonlyargs
                            + [arguments.vararg, arguments.kwarg]
                            if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {inner.id for inner in
                          ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(inner, ast.Name)}
    return names


@pytest.mark.parametrize("name", SUBMODULES + ["__init__"])
def test_module_has_no_unused_imports(name):
    path = Path(pm.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    # the package re-exports what it imports through __all__
    used |= set(getattr(importlib.import_module(
        "poismoe" if name == "__init__" else f"poismoe.{name}"),
        "__all__", ()))
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", SUBMODULES + ["__init__"])
def test_module_imports_no_private_sibling_names(name):
    tree = ast.parse(Path(pm.__file__).with_name(f"{name}.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("poismoe"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
