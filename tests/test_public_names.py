"""Every name the demos and the README import from fracnoether exists."""

import ast
import importlib
import re
from pathlib import Path

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
