"""Source-level rules for the package: `python -O` strips `assert`
statements, so no correctness check in src/degencut may be one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "degencut"


def test_no_assert_statements_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
