"""Static checks on the engine's source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "superjet").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        else:
            continue
        imported.update((n, node.lineno) for n in names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {n: line for n, line in imported.items() if n not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
