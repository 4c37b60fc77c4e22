"""What pyproject.toml declares covers what the package and its tests use."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def test_numpy_floor_has_trapezoid():
    """The package calls np.trapezoid, which numpy has from 2.0 on.  Read by
    a regex: tomllib is missing on Python 3.10."""
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT)
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)


def test_test_extra_names_every_third_party_test_import():
    """Each module that a test file imports, beyond the standard library,
    numpy, the package and the tests' own modules, is in the test extra."""
    extra = re.search(r"^test = \[(.*)\]$", PYPROJECT, re.M)
    assert extra is not None
    declared = set(re.findall(r'"([A-Za-z0-9_-]+)', extra.group(1)))
    paths = sorted((ROOT / "tests").glob("*.py"))
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in paths} | {"numpy", "fracnoether"}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party and third_party <= declared, third_party - declared
