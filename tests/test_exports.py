"""Every public name a module declares exists, and the package re-exports only declared names.

``perfbench/tracer.py`` picks the functions it times from each module's
``__all__``, so a stale entry should fail here rather than in the benchmark.
"""

import ast
import importlib
from pathlib import Path

import mixedsde

SOURCE = Path(mixedsde.__file__).resolve().parent


def test_every_name_in_all_exists():
    missing = []
    for source in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module("mixedsde" if source.stem == "__init__" else f"mixedsde.{source.stem}")
        declared = getattr(module, "__all__", ())
        missing += [f"{module.__name__}.{name}" for name in declared if not hasattr(module, name)]
    assert not missing, missing


def test_package_imports_only_names_in_their_modules_all():
    undeclared = []
    for node in ast.parse((SOURCE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            declared = getattr(importlib.import_module(f"mixedsde.{node.module}"), "__all__", None)
            if declared is None:  # errors.py declares no __all__
                continue
            undeclared += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in declared]
    assert not undeclared, undeclared
