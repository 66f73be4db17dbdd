"""Every public name a module declares exists, the package re-exports only declared names, and none is dead.

``perfbench/tracer.py`` picks the functions it times from each module's
``__all__``, so a stale entry should fail here rather than in the benchmark.
"""

import ast
import importlib
import re
from pathlib import Path

import mixedsde

SOURCE = Path(mixedsde.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
CSV_SCHEMA = README.parent / "docs" / "csv_schema.md"


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


def _reads(tree, name):
    """Whether ``tree`` loads ``name``, as a bare name or an attribute, outside a def of that name."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and tree.name == name:
        return False
    loaded = isinstance(getattr(tree, "ctx", None), ast.Load)
    if loaded and name in (getattr(tree, "id", ""), getattr(tree, "attr", "")):
        return True
    return any(_reads(child, name) for child in ast.iter_child_nodes(tree))


def _trees_and_exports():
    trees = [ast.parse(source.read_text()) for source in sorted(SOURCE.glob("*.py"))]
    exported = [alias.name for node in ast.parse((SOURCE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    return trees, exported


def test_every_export_and_its_public_methods_are_used_or_documented():
    # A name counts as used when src/mixedsde reads it. Attributes match by name
    # only, so a method that shares a name with a read attribute is not caught.
    trees, exported = _trees_and_exports()
    methods = [f"{node.name}.{item.name}" for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in exported for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")]
    readme = README.read_text()
    dead = []
    for qualified in exported + methods:
        name = qualified.rsplit(".", 1)[-1]
        if not any(_reads(tree, name) for tree in trees) and not re.search(rf"\b{name}\b", readme):
            dead.append(qualified)
    assert not dead, f"public names that neither src/mixedsde reads nor README.md names: {dead}"


def test_every_field_of_an_exported_class_is_read_or_documented():
    # A field that nothing reads is a second copy of a fact or an echo of an input.
    # As above, fields match by name only: one that shares a name with any name
    # src/mixedsde reads, a local variable included, is not caught.
    trees, exported = _trees_and_exports()
    fields = [f"{node.name}.{item.target.id}" for tree in trees for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name in exported for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    docs = README.read_text() + CSV_SCHEMA.read_text()
    unread = []
    for qualified in fields:
        name = qualified.rsplit(".", 1)[-1]
        if not any(_reads(tree, name) for tree in trees) and not re.search(rf"\b{name}\b", docs):
            unread.append(qualified)
    assert not unread, f"fields of exported classes that neither src/mixedsde reads nor the docs name: {unread}"


def test_every_private_module_level_helper_is_read():
    # A private def or class that no src/mixedsde code reads is dead, for
    # example a copy of another helper left behind when its callers moved on.
    trees, _ = _trees_and_exports()
    helpers = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    dead = [name for name in helpers if not any(_reads(tree, name) for tree in trees)]
    assert helpers and not dead, f"private module-level helpers that no src/mixedsde code reads: {dead}"
