import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "enscribe"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so runtime checks must raise instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
