"""The CLI examples in README.md run as written. Each `degencut ...` line of
the sh block under "## CLI" that reads no --input file goes through
`python -m degencut`; an `echo "X" |` prefix becomes stdin. Each must exit 0,
and a following `# {...}` comment with no "..." must equal the output."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[tuple[str, str | None, str | None]]:
    """(command, stdin, expected JSON or None) per runnable example line."""
    text = README.read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
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
