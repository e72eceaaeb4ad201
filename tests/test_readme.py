"""The CLI and Library examples in README.md run as written. Each
`degencut ...` line of the sh block under "## CLI" that reads no --input file
goes through `python -m degencut`; an `echo "X" |` prefix becomes stdin. Each
must exit 0, and a following `# {...}` comment with no "..." must equal the
output. The python block under "## Library" runs statement by statement, and
each bare expression with a trailing `# value` comment must have a repr equal
to the comment's text before its first ":"."""

import ast
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def block_under(heading: str, fence: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def cli_examples() -> list[tuple[str, str | None, str | None]]:
    """(command, stdin, expected JSON or None) per runnable example line."""
    lines = block_under("CLI", "sh").splitlines() + [""]
    examples = []
    for line, after in zip(lines, lines[1:]):
        piped = re.fullmatch(r'echo "([^"]*)" \| (degencut .*)', line)
        stdin, command = (piped[1] + "\n", piped[2]) if piped else (None, line)
        if not command.startswith("degencut ") or "--input" in command:
            continue
        shown = after.startswith("# {") and "..." not in after
        examples.append((command, stdin, after[2:] if shown else None))
    return examples


def test_readme_cli_examples_run():
    examples = cli_examples()
    assert len(examples) >= 6
    for command, stdin, expected in examples:
        out = subprocess.run(
            [sys.executable, "-m", "degencut", *shlex.split(command)[1:]],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, (command, out.stderr)
        if expected is not None:
            assert json.loads(out.stdout) == json.loads(expected), command


def test_readme_library_example_runs():
    block = block_under("Library", "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        expr = compile(ast.Expression(stmt.value), "README.md", "eval")
        value = eval(expr, namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        if comment.startswith("#"):
            expected = comment[1:].split(":", 1)[0].strip()
            assert repr(value) == expected, lines[stmt.lineno - 1]
            checked += 1
    assert checked >= 4
