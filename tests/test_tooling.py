import ast
import inspect
import os
import re
import subprocess
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


def test_import_leaves_scipy_optimize_out():
    # the search solves with its own Jacobian; scipy.optimize would add about
    # 0.3 s and 20 MB to every import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, enscribe; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy_module():
    # the package needs only numpy; scipy.linalg alone took about 0.2 s of every import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, enscribe; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the tolerance and start-count parameters some caller sets; every other
# threshold is a named module constant
SETTABLE = {
    ("certificates", "is_valid", "accept_tol"),
    ("procedures", "build_procedure", "accept_tol"),
    ("machine", "run_clone", "accept_tol"),
    ("linalg", "unitary_from_correspondence", "gram_tol"),
}


def test_no_unset_tolerance_parameters():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is not None and ("tol" in arg.arg or arg.arg == "starts"):
                        found.add((path.stem, getattr(node, "name", "<lambda>"), arg.arg))
    assert found == SETTABLE


def test_readme_tables_name_what_their_modules_define():
    # rows of the form | `enscribe.module` | ... |: every `name` in a row
    # resolves in that module, a dotted `module.name` in the package
    import enscribe

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set()
    missing = []
    for module, cell in re.findall(r"^\| `enscribe\.(\w+)` \|(.*)\|$", readme, re.M):
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", cell):
            listed.add((module, name))
            obj = getattr(enscribe, module)
            if "." in name and not hasattr(obj, name.split(".")[0]):
                obj = enscribe
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module}: {name}")
    assert missing == []
    # and every named tolerance constant has a row
    constants = {
        (path.stem, target.id)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    }
    assert constants <= listed


# the functions that read texts.DEFAULT_TOL; which states overlap is decided
# once, by texts.overlap_graph, and every other reader goes through it
DEFAULT_TOL_READERS = {
    ("texts", "make_text"),
    ("texts", "overlap_graph"),
    ("texts", "make_real_uniform"),
    ("texts", "direct_sum_decompose"),
    ("engine", "real_uniform_overlap"),
}


def test_default_tol_readers_are_listed():
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Name) and node.id == "DEFAULT_TOL" and isinstance(node.ctx, ast.Load)) or (
            isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
        ):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, None)
    assert found == DEFAULT_TOL_READERS
