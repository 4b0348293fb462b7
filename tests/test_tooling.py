import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "enscribe"
TESTS = ROOT / "tests"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must raise instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_test_imports_are_declared_in_the_test_extra():
    # a fresh `pip install .[test]` must be able to collect the whole suite
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0] for req in requirements}
    imported = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in TESTS.glob("*.py")} | {"enscribe"}
    assert imported - local - set(sys.stdlib_module_names) <= declared


def test_benchmark_hooks_keep_their_signatures():
    # bench/run.py wraps search._minimize_start for its per-start spans and
    # silently drops them when the name is gone; a test counts objective
    # calls through _Objective.residual_vector
    from enscribe import search

    assert list(inspect.signature(search._minimize_start).parameters) == ["obj", "x0", "fixed_q"]
    assert list(inspect.signature(search._Objective.residual_vector).parameters) == ["self", "x", "fixed_q"]
