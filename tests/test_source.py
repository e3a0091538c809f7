"""Source-level checks on the package itself."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "diagalg"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; every check in the package must raise instead.
    found = []
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert paths, PACKAGE_DIR
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
