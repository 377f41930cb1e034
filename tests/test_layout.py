"""Every top-level function and class of a production module has a production use.

Production code is every module of `src/peqlab` but `oracle.py`, which holds
the verification-only reference forms.  A definition counts as used when a
production module reads its name as a Name or an Attribute node; its own
definition, imports and docstrings do not count.  Code that only the tests
or `oracle.py` call belongs in `oracle.py` or the tests.

Every module but the re-exporting `__init__.py` also reads each name it
imports, and each name in its annotations resolves in the module, so
`typing.get_type_hints` works on every function.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peqlab"

#: definitions with no production use that stay, each for its reason
ALLOWED = {
    "operators.pairwise_dot",  # wrapped by name by perfbench's tracer
    "io.write_timeseries",  # wrapped by name by perfbench's tracer
    "io.read_snapshot",  # the documented snapshot reader
}


def _production_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"}


def _unused(trees: dict) -> set:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    }


def test_every_production_definition_has_a_production_use():
    unused = _unused(_production_trees())
    assert sorted(unused - ALLOWED) == []
    # an allowed name that gained a use, or went away, leaves the list
    assert unused >= ALLOWED


def _modules() -> dict:
    """Every module of `src/peqlab` but `__init__.py`, whose imports are its exports."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _imported(node) -> list:
    """The names an import statement binds; `from __future__` binds none."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _module_scope(tree) -> set:
    """The names a module binds at its top level, builtins included."""
    names = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}.{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in _imported(node) if name not in read]
    assert unused == []


def test_every_annotation_resolves():
    unresolved = []
    for module, tree in _modules().items():
        scope = _module_scope(tree)
        unresolved += [f"{module}:{node.lineno} {node.id}" for annotation in _annotations(tree)
                       for node in ast.walk(annotation)
                       if isinstance(node, ast.Name) and node.id not in scope]
    assert unresolved == []
