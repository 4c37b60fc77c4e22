"""Every name the demos, the README and the benchmark tracer use from
fracnoether exists, and every name the package imports is used."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import fracnoether

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i}", block


def _imported_names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracnoether"):
            for alias in node.names:
                yield node.module, alias.name


def test_demo_and_readme_imports_exist():
    missing = []
    checked = 0
    for where, source in _sources():
        for module, name in _imported_names(source):
            checked += 1
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{where}: from {module} import {name}")
    assert checked > 0
    assert not missing, missing


def test_benchmark_tracer_targets_exist(monkeypatch):
    """Every function the benchmark tracer wraps still exists, so renaming or
    deleting one fails here rather than in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    pairs = [pair for targets in tracer.layer_table(fracnoether).values() for pair in targets]
    assert pairs
    missing = [f"{owner!r}.{name}" for owner, name in pairs if not hasattr(owner, name)]
    assert not missing, missing


def test_fields_have_one_method_per_quantity():
    """One batch layout, points first, so a field's public methods take one
    point or M points alike; no per-layout twin exists."""

    def public_methods(cls):
        return {name for name, value in vars(cls).items() if callable(value) and name[0] != "_"}

    assert public_methods(fracnoether.PointField) == {"d_x", "d_y", "hessian", "check_partials"}
    assert public_methods(fracnoether.VectorField) == {"d_x", "d_y"}


def test_numpy_is_the_only_runtime_dependency():
    """Every import in the package is numpy, the standard library, or the
    package itself."""
    outside = []
    for path in sorted((ROOT / "src" / "fracnoether").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {module}")
    assert not outside, outside


def test_every_imported_name_is_used():
    """Each module of the package uses every name it imports, so a refactor
    leaves no dead import behind.  ``__init__.py`` imports in order to
    re-export, ``__future__`` imports are directives, and a name listed in a
    module's ``__all__`` counts as used."""
    unused, checked = [], 0
    for path in sorted((ROOT / "src" / "fracnoether").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
        checked += len(imported)
    assert checked > 0 and not unused, unused


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_definition_is_used():
    """Each private module-level name and private method of the package is
    referenced somewhere in the package outside its own definition, so a
    refactor leaves no dead helper behind.  A recursive helper that nothing
    else calls counts as unused."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "fracnoether").glob("*.py"))}
    definitions, references = [], []
    for module, tree in trees.items():
        methods = [member for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for member in cls.body if isinstance(member, ast.FunctionDef)]
        for node in tree.body + methods:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            definitions += [(module, name, node.lineno, node.end_lineno)
                            for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno))
    unused = [
        f"{module}:{first}: {name}"
        for module, name, first, last in definitions
        if not any(ref == name and not (where == module and first <= line <= last)
                   for where, ref, line in references)
    ]
    assert definitions and not unused, unused


def test_each_public_name_is_declared_once_in_its_module():
    """The package re-exports its library modules with star imports, so a
    name in two modules' ``__all__`` would silently shadow the earlier one,
    and a name imported into a module's ``__all__`` would be declared twice.
    ``fracnoether.__all__`` is the star-imported modules' lists and
    ``__version__``, each name once, and every name resolves."""
    modules = [
        importlib.import_module(f"fracnoether.{path.stem}")
        for path in sorted((ROOT / "src" / "fracnoether").glob("*.py"))
        if path.name != "__init__.py"
    ]
    owner, clashes, foreign = {}, [], []
    for module in modules:
        for name in module.__all__:
            if name in owner:
                clashes.append(f"{name}: {owner[name]} and {module.__name__}")
            owner[name] = module.__name__
            value = getattr(module, name)
            is_code = inspect.isclass(value) or inspect.isfunction(value)
            if is_code and value.__module__ != module.__name__:
                foreign.append(f"{module.__name__}.{name} is defined in {value.__module__}")
    assert not clashes, clashes
    assert not foreign, foreign

    init = ast.parse((ROOT / "src" / "fracnoether" / "__init__.py").read_text())
    starred = [
        node.module for node in init.body
        if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]
    ]
    expected = [
        name for module in starred for name in importlib.import_module(f"fracnoether.{module}").__all__
    ]
    names = fracnoether.__all__
    assert starred and sorted(names) == sorted(expected + ["__version__"])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fracnoether, name)] == []
