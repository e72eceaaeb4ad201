"""Source-level rules for the package: `python -O` strips `assert`
statements, so no correctness check in src/degencut may be one; and no
private module-level helper may outlive its last caller."""

import ast
import re
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


def test_every_private_module_function_is_referenced():
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    everything = "\n".join(texts.values())
    unused = [
        f"{path.name}:{node.name}"
        for path, text in texts.items()
        for node in ast.parse(text, filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and len(re.findall(rf"\b{node.name}\b", everything)) < 2
    ]
    assert unused == []
