"""Static checks on the engine's source."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "superjet").glob("*.py"))


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


# public definitions that only the tests call
ONLY_TESTS_USE = set()


def _identifiers(node):
    """Every name a syntax tree refers to: variables, attributes and
    imported names.  A string that happens to spell a name is no
    reference."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def _public_definitions(tree):
    """The public top-level functions and classes of a module, and the
    public methods and properties of its classes, as (qualified name,
    node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller():
    """A public top-level function or class of the engine, or a public
    method or property of one of its classes, is referred to somewhere in
    the engine, the benchmark or the README outside its own definition,
    unless it is listed as used by the tests alone."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}
    refs = Counter(name for tree in trees.values() for name in _identifiers(tree))
    readme = (ROOT / "README.md").read_text()
    unused = set()
    for path in SOURCES:
        for qualified, node in _public_definitions(trees[path]):
            own = Counter(_identifiers(node))[node.name]
            if refs[node.name] == own and not re.search(rf"\b{node.name}\b", readme):
                unused.add(f"{path.stem}.{qualified}")
    assert unused == ONLY_TESTS_USE, f"used by the tests alone: {sorted(unused)}"


def test_only_jets_reads_the_memo_epoch():
    """Every ``[epoch, table]`` memo reads its table through
    ``jets._epoch_table``, so the rule that a declaration empties the
    memos lives in ``jets`` alone."""
    readers = {path.stem for path in SOURCES
               for n in ast.walk(ast.parse(path.read_text(), str(path)))
               if "_epoch" in (getattr(n, "id", None), getattr(n, "attr", None),
                               getattr(n, "name", None))}
    assert readers == {"jets"}


def test_recursion_leaves_ansatz_membership_to_weights():
    """Whether a monomial is in an integration ansatz is decided by
    ``weights.ansatz_member`` alone: ``recursion`` neither scales weights
    to ints nor orders factors itself."""
    tree = ast.parse((ROOT / "src" / "superjet" / "recursion.py").read_text())
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(tree)}
    assert not names & {"integer_weights", "_sort_key"}


def _writes_to_defs(tree):
    """The enclosing function names of every statement that stores into, or
    calls a mutating method of, a ``.defs`` mapping."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for n in ast.walk(fn):
            targets = []
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = n.targets if hasattr(n, "targets") else [n.target]
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in mutators):
                targets = [n.func.value]
            for t in targets:
                t = t.value if isinstance(t, ast.Subscript) else t
                if isinstance(t, ast.Attribute) and t.attr == "defs":
                    yield fn.name


def test_declared_values_are_written_only_by_declare():
    """Memoized jets stay valid only if every change to a non-local's
    declarations goes through ``jets.declare``."""
    writers = {(path.stem, name) for path in SOURCES
               for name in _writes_to_defs(ast.parse(path.read_text(), str(path)))}
    assert writers == {("jets", "declare")}


def _constructions(tree, name):
    """The innermost enclosing function of every call of ``name``, or
    ``None`` for a call at module level."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from visit(child, getattr(child, "name", fn))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    yield fn
            yield from visit(child, fn)

    return visit(tree, None)


def test_linear_equations_are_built_only_by_the_row_builders():
    """Each ``LinearEquation`` entry is a ``RingElement`` that the tracer
    asks for ``param_names``, and the solver reads entries as they are,
    so rows and their entries come from two builders alone: extraction,
    which reads every residual into rows, and the case split's pinning."""
    for name in ("LinearEquation", "RingElement"):
        builders = {(path.stem, fn) for path in SOURCES
                    for fn in _constructions(ast.parse(path.read_text(), str(path)), name)}
        assert builders == {("determine", "extract_linear_system"),
                            ("determine", "_pinned")}, name


def test_the_engine_starts_without_the_dataclasses_machinery():
    """Importing the engine and its command line loads neither ``dataclasses``
    (which loads ``inspect``, ``ast``, ``dis`` and ``tokenize``) nor
    ``traceback``: records are plain classes, and ``traceback`` is imported
    only on the error paths that print one.  A fresh interpreter measures
    what each ``superjet`` call pays at start-up."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in modules, path.name
    code = ("import sys, superjet.catalog, superjet.cli; "
            "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
