"""Every top-level function and class of a production module has a production use.

Production code is every module of `src/peqlab` but `oracle.py`, which holds
the verification-only reference forms.  A definition counts as used when a
production module reads its name as a Name or an Attribute node; its own
definition, imports and docstrings do not count.  Code that only the tests
or `oracle.py` call belongs in `oracle.py` or the tests.
"""

import ast
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
