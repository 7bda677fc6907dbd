"""Every function, class and method in the package is used by the package.

A definition that only tests call belongs in the tests, and a private helper
that a refactor left behind belongs nowhere: the module parses each source
file and looks for a reference, by name or attribute, to every module-level
function and class outside its own definition, and for an attribute
reference (`x.name`) to every method and property of a class, dunders aside,
outside that method.  A bare name such as a local variable uses no method.
"""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "murmurlab"

#: definitions that may go unreferenced in the package
ALLOWED = {
    # the one-height face of the quadrature rule that locate_zeros brackets;
    # the mpmath and incomplete-gamma oracle tests pin that rule through it
    "lfunctions.lambda_critical",
    # the bench's twist-cache check looks curves up by label through it
    "traces.TraceMatrix.row_index",
    # the bench tracer's span for the Dirichlet coefficients of one curve
    "lfunctions.LSeries.from_curve",
    # the bench tracer's shuffle counter
    "stratify.StratReports.n_shuffles",
}


def _names(node) -> set[str]:
    """The names the node uses, an attribute spelt ".name"."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _is_method(node) -> bool:
    return (isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _statements(tree) -> list:
    """(statement, names it uses): top-level ones, a class as its header and body statements."""
    statements = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            header = [*top.decorator_list, *top.bases, *top.keywords]
            statements.append((top, set().union(*map(_names, header))))
            statements += [(stmt, _names(stmt)) for stmt in top.body]
        else:
            statements.append((top, _names(top)))
    return statements


def unreferenced_definitions(src: Path) -> list[str]:
    """Qualified name of each definition that no other code in src names."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    statements = [entry for tree in modules.values() for entry in _statements(tree)]
    # (qualified name, the spellings that use it, the statements that define it)
    definitions = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", {node.name, "." + node.name},
                                    {id(n) for n in ast.walk(node)}))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{method.name}", {"." + method.name},
                                 {id(method)}) for method in node.body if _is_method(method)]
    return [qualified for qualified, spellings, own in definitions
            if qualified not in ALLOWED
            and not any(spellings & used for stmt, used in statements if id(stmt) not in own)]


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


def test_a_method_only_tests_call_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "traces.py").read_text()
    anchor = "    def row_index(self, label: str) -> int:\n"
    assert anchor in source
    (copy / "traces.py").write_text(source.replace(anchor, (
        "    @property\n"
        "    def bad_entry_count(self) -> int:\n"
        "        return int(self.bad_flags.sum())\n"
        "\n"
        "    def rows_of(self, labels):\n"
        "        return [self.row_index(label) for label in labels] or self.rows_of([])\n"
        "\n" + anchor)))
    # rows_of names itself, which is no use
    assert unreferenced_definitions(copy) == ["traces.TraceMatrix.bad_entry_count",
                                              "traces.TraceMatrix.rows_of"]


def test_a_method_named_like_a_local_variable_is_caught(tmp_path):
    # lfunctions has a local variable `records`, which uses no method of that name
    lfunctions = ast.parse((SRC / "lfunctions.py").read_text())
    assert "records" in {n.id for n in ast.walk(lfunctions) if isinstance(n, ast.Name)}
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "curves.py").read_text()
    anchor = "    def record(self, i: int) -> CurveRecord:\n"
    assert anchor in source
    (copy / "curves.py").write_text(source.replace(anchor, (
        "    @property\n"
        "    def records(self) -> tuple[CurveRecord, ...]:\n"
        "        return tuple(map(self.record, range(len(self))))\n"
        "\n" + anchor)))
    assert unreferenced_definitions(copy) == ["curves.CurveTable.records"]
