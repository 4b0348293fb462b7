import argparse
import ast
import importlib
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


def test_benchmark_smoke_passes():
    # every benchmark correctness check runs on tiny inputs, so a package
    # change that breaks one fails the suite; scipy is the bench extra
    pytest.importorskip("scipy")
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stdout.strip().endswith("smoke ok")


def test_import_loads_no_scipy_module():
    # the package needs only numpy; scipy.linalg alone took about 0.2 s of every import
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, enscribe; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _functions_where(matches) -> list:
    """(module, enclosing function) of each node of the package source that ``matches``, in document order."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, None)
    return found


# the public module-level functions and classes that no code in the package reads, each with its reader
# outside it (no class is listed: each has a reader in the package)
UNREAD_PUBLIC_FUNCTIONS = {
    ("files", "save_text"),  # file API: the writer of what load_text reads
    ("files", "save_certificate"),  # file API: the writer of what load_certificate reads
    ("engine", "solve_real_uniform_central"),  # bench setup and screen op: the closed form of a canonical text
    ("machine", "controlled_swap"),  # bench probe: the dense operator's size in procedure-clone
    ("texts", "equivalent"),  # bench screen op: the equivalence search on rotated texts
}


def test_public_functions_that_nothing_reads_are_listed():
    # a public function or class that no package path calls, names or passes on is an orphan, unless listed
    # above; so a helper whose readers are gone cannot linger
    defined, read = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {(module, name) for module, name in defined if name not in read} == UNREAD_PUBLIC_FUNCTIONS


def test_certificates_are_constructed_only_by_certificates_certificate():
    # every residual the package holds is computed by enscription_residual, never read or set
    def constructs(node):
        if not isinstance(node, ast.Call):
            return False
        callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        return callee == "EnscriptionCertificate"

    assert _functions_where(constructs) == [("certificates", "certificate")]


def test_only_enscription_params_sets_a_frozen_field():
    # constructors normalize once, so no loader patches the fields of a built object
    def sets(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )

    assert set(_functions_where(sets)) == {("certificates", "__post_init__")}


def _importers(target) -> set:
    """The package modules that import module ``target`` of the package, by any import form."""

    def imports(node):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            return False
        return any(name.split(".")[-1] == target for name in names)

    return {module for module, _ in _functions_where(imports)}


def _loads(names):
    """A matcher for nodes that read (or import) one of ``names``."""

    def reads(node):
        return (
            (isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.alias) and node.name in names)
        )

    return reads


def test_cli_and_files_hold_no_numeric_rule():
    # normalization lives in the constructors and closed forms in engine, so the
    # I/O layers need neither linalg nor, in cli, certificates
    assert {"cli", "files"} & _importers("linalg") == set()
    assert "cli" not in _importers("certificates")
    # which closed form applies is decided once, by engine._closed_form
    closed_forms = {"solve_two_text", "solve_real_uniform_central", "_phase_gauge", "q_range_two_text",
                    "q_range_real_uniform"}
    assert [where for where in _functions_where(_loads(closed_forms)) if where[0] == "cli"] == []


def test_one_function_decides_each_closed_form_and_each_certificate():
    # engine derives the gauge and the thick range of a text once, in _closed_form, for the
    # screen, qrange and both solvers; cli reaches a certificate (or solve's negative report)
    # through _certificate alone, for solve, build-procedure and clone
    assert {where for where in _functions_where(_loads({"_phase_gauge"})) if where[0] == "engine"} == {
        ("engine", "_closed_form")
    }
    solvers = {where for where in _functions_where(_loads({"solve_closed_form", "feasibility_search"}))
               if where[0] == "cli" and where[1] is not None}
    assert solvers == {("cli", "_certificate")}


def test_one_function_splits_a_state_in_the_machine():
    # run_clone and the parity check read q, A, p_i and the failure input from machine._split,
    # so no second derivation of a state's split can come back
    readers = {where for where in _functions_where(_loads({"_normalizer"}))
               if where[0] == "machine" and where[1] is not None}
    assert readers == {("machine", "_split")}


def test_only_the_acceptance_checks_read_z0_threshold():
    # the bisection is the reference that verify-theorems compares the closed
    # form against; no runtime verdict reads it
    assert set(_functions_where(_loads({"z0_threshold"}))) == {
        ("__init__", None),  # the package's re-export
        ("verification", "check_uniform_threshold"),
        ("verification", "check_uniform_q_range"),
    }


def test_clone_path_builds_product_vectors_without_kron():
    # np.kron of two vectors costs about five times np.outer(a, b).ravel(), which gives the same bits
    def kron(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "kron"

    assert [module for module, _ in _functions_where(kron) if module in ("certificates", "procedures", "machine")] == []


def test_only_the_reports_form_a_dense_procedure():
    # a procedure is built, verified and run on its factors; only the build-procedure report
    # and the check whose subject is the qubit example's explicit matrix form a matrix
    def forms(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "matrix"

    assert set(_functions_where(forms)) == {
        ("files", "procedure_to_dict"),
        ("verification", "check_qubit_example"),
    }


def test_only_procedures_builds_a_unitary_from_a_correspondence():
    # the doubled-space builder serves build_procedure alone; the d x d witness of
    # texts.equivalent is a Procrustes rotation, not a procedure
    callers = {where for where in _functions_where(_loads({"unitary_from_correspondence"})) if where[1] is not None}
    assert callers == {("procedures", "build_procedure")}


def test_verdict_inputs_have_no_default():
    # a certificate is judged on its text, a clone runs the caller's procedure,
    # and a correspondence is sized by the caller, never by a fallback
    from enscribe import files, linalg, machine

    for function, name in [
        (files.certificate_from_dict, "text"),
        (files.load_certificate, "text"),
        (machine.run_clone, "procedure"),
        (linalg.unitary_from_correspondence, "dim"),
    ]:
        assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty, function.__name__


def test_one_precision_stops_a_start_and_ties_the_floors():
    # an infeasible start polishes its floor to the precision at which the search ties floors, so
    # FLOOR_TIE alone sets both, and no numeric literal is left in a comparison with the cost
    assert set(_functions_where(_loads({"FLOOR_TIE"}))) == {
        ("search", "_minimize_start"),
        ("search", "feasibility_search"),
    }
    from enscribe import search

    tree = ast.parse(inspect.getsource(search._minimize_start))
    literals = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and "cost" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        and any(isinstance(n, ast.Constant) and isinstance(n.value, (int, float)) for n in ast.walk(node))
    ]
    assert literals == []


# the tolerance and start-count parameters some caller sets; every other
# threshold, certificates.ACCEPT_TOL included, is a named module constant
SETTABLE = {("linalg", "unitary_from_correspondence", "gram_tol")}


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
    # resolves in that module, a dotted `module.name` in that module of the
    # package; modules are imported here, so the test does not depend on which
    # submodules earlier tests imported
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set()
    missing = []
    for module, cell in re.findall(r"^\| `enscribe\.(\w+)` \|(.*)\|$", readme, re.M):
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", cell):
            listed.add((module, name))
            obj = importlib.import_module(f"enscribe.{module}")
            parts = name.split(".")
            if len(parts) > 1 and not hasattr(obj, parts[0]):
                obj = importlib.import_module(f"enscribe.{parts.pop(0)}")
            for part in parts:
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
    ("engine", "_phase_gauge"),
}


def test_default_tol_readers_are_listed():
    def reads(node):
        return (isinstance(node, ast.Name) and node.id == "DEFAULT_TOL" and isinstance(node.ctx, ast.Load)) or (
            isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
        )

    assert set(_functions_where(reads)) == DEFAULT_TOL_READERS


def test_only_the_phase_gauge_reads_imaginary_parts_in_engine():
    # one rule decides that an overlap is real, so a text and its phased images get one closed form
    readers = {where for where in _functions_where(_loads({"imag"})) if where[0] == "engine"}
    assert readers == {("engine", "_phase_gauge")}


def test_readme_flag_table_lists_each_subcommands_flags():
    # the "| subcommand | flags |" table against cli.build_parser(), so a removed flag cannot linger
    from enscribe import cli

    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actual = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| subcommand \| flags \|\n\| --- \| --- \|\n((?:\|.*\|\n)+)", readme, re.M).group(1)
    listed = {}
    for names, flags in re.findall(r"^\| (.*) \| (.*) \|$", table, re.M):
        for name in re.findall(r"`([\w-]+)`", names):
            listed[name] = set(re.findall(r"`(--[\w-]+)`", flags))
    assert listed == actual
