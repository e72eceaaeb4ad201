"""Source-level rules for the package: `python -O` strips `assert`
statements, so no correctness check in src/degencut may be one; no
private module-level helper may outlive its last caller; no module imports
another module's private name; no module keeps an import it does not use;
the package's `__all__` names exactly what its `__init__` imports; every
module is reached from the CLI; and no module does work at import time
beyond defining its names."""

import ast
import re
from pathlib import Path

import degencut

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


def test_no_module_imports_a_private_name_from_another():
    crossing = [
        f"{path.name}:{node.lineno}:{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "degencut")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


def test_every_imported_name_is_used():
    # a deletion must take its imports with it; `__init__` imports only to
    # re-export, and `from __future__` names switch on language features
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in used
        ]
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert len(degencut.__all__) == len(set(degencut.__all__))
    assert set(degencut.__all__) == set(imported)


def test_every_module_is_reachable_from_the_cli():
    imports = {}
    for path in SRC.glob("*.py"):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        imports[path.stem] = targets
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(imports.get(name, ()))
    assert sorted(set(imports) - reached - {"__init__", "__main__"}) == []


def _defines_only(node: ast.stmt) -> bool:
    """A top-level statement that runs nothing at import beyond a definition."""
    if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)):
        return True
    if isinstance(node, ast.Expr):  # a docstring
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    if isinstance(node, ast.If):  # the __main__ guard
        return ast.unparse(node.test) == "__name__ == '__main__'"
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return all(
            isinstance(call.func, ast.Name) and call.func.id == "TypeVar"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        )
    return False


def test_no_module_does_work_at_import_time():
    # every fresh import runs each top-level statement: a table or cache built
    # there is paid by every process that imports the package
    work = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if not _defines_only(node)
    ]
    assert work == []
