"""Every module-level function and class in the package is used by the package.

A definition that only tests call belongs in the tests, and a private helper
that a refactor left behind belongs nowhere: the module parses each source
file and looks for a reference, by name or attribute, to every module-level
function and class outside its own definition.
"""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "murmurlab"

#: definitions that may go unreferenced in the package
ALLOWED = {
    # the one-height face of the quadrature rule that locate_zeros brackets;
    # the mpmath and incomplete-gamma oracle tests pin that rule through it
    "lambda_critical",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(src: Path) -> list[str]:
    """module.name of each definition that no other code in src names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    statements = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    return [f"{module}.{node.name}"
            for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in ALLOWED
            and not any(node.name in used for stmt, used in statements if stmt is not node)]


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(SRC) == []


def test_a_definition_only_tests_call_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "traces.py", "a") as fh:
        fh.write("\n\ndef frobenius_trace(a_invariants, conductor, p):\n"
                 "    traces, _ = _trace_columns([a_invariants], [conductor], [p])\n"
                 "    return int(traces[0, 0])\n")
    assert unreferenced_definitions(copy) == ["traces.frobenius_trace"]


def test_an_orphaned_private_helper_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "curves.py", "a") as fh:
        fh.write("\n\ndef _suspects(v):\n"
                 "    return ~(v[\"conductor\"] >= MIN_CONDUCTOR)\n")
    assert unreferenced_definitions(copy) == ["curves._suspects"]
