"""Every function, class, method and default in the package is used by the package.

A definition that only tests call belongs in the tests, and a private helper
that a refactor left behind belongs nowhere: the module parses each source
file and looks for a reference, by name or attribute, to every module-level
function and class outside its own definition, and for an attribute
reference (`x.name`) to every method and property of a class, dunders aside,
outside that method.  A bare name such as a local variable uses no method.

A default is a knob: a value no call in the package sets is a constant, and
one every call sets is a second copy of the value and a branch only tests
reach.  So every defaulted parameter of a module-level function or method
must be passed by at least one call in the package, outside its own
definition, and omitted by at least one.  A call counts by name or by
attribute, and `cli._part(fn, *args, **kwargs)` counts as a call of fn; a
`*` or `**` splat counts as both passing and omitting every parameter.
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

#: defaulted parameters that no package call need both pass and omit
ALLOWED_DEFAULTS = {
    # the console entry point calls main(), and argv is there for callers
    # that run a step in-process
    "cli.main.argv",
    # the bench tracer's span wraps from_curve, the one-record face of from_curves
    "lfunctions.LSeries.from_curve.n_max",
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


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> tuple[list[str], list[str]]:
    """The positional parameters of fn as a call binds them, and its defaulted ones."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[1:] if is_method else positional, defaulted  # less self or cls


def _calls(module: str, tree) -> list[tuple[object, str, int, set[str], bool]]:
    """(call, callee, positional count, keywords, splat) of each call in a module.

    The callee is "module.name" for a bare name the module defines or imports
    from a package module, else ".name"; a nested function of the same name
    as another module's function calls no function of that module.
    `_part(fn, *args, **kwargs)` is a call of fn with the arguments after it.
    """
    bound = {node.name: module for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            bound.update((alias.asname or alias.name, node.module) for alias in node.names)
    calls = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func, args = call.func, call.args
        if isinstance(func, ast.Name) and func.id == "_part" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name) and func.id in bound:
            callee = f"{bound[func.id]}.{func.id}"
        elif isinstance(func, ast.Attribute):
            callee = "." + func.attr
        else:
            continue
        keywords = {k.arg for k in call.keywords if k.arg is not None}
        splat = (any(isinstance(a, ast.Starred) for a in args)
                 or any(k.arg is None for k in call.keywords))
        calls.append((call, callee, len(args), keywords, splat))
    return calls


def idle_defaults(src: Path) -> list[tuple[str, str]]:
    """(qualified parameter, fault) of each default no call sets, or every call sets."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls = [call for module, tree in modules.items() for call in _calls(module, tree)]
    functions = []  # (qualified name, callees that call it, definition, is a method)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{module}.{node.name}",
                                  {f"{module}.{node.name}", "." + node.name}, node, False))
            if isinstance(node, ast.ClassDef):
                functions += [(f"{module}.{node.name}.{m.name}", {"." + m.name}, m, True)
                              for m in node.body if isinstance(m, ast.FunctionDef)]
    faults = []
    for qualified, callees, fn, is_method in functions:
        positional, defaulted = _defaulted(fn, is_method)
        own = {id(n) for n in ast.walk(fn)}
        mine = [c for c in calls if c[1] in callees and id(c[0]) not in own]
        for param in defaulted:
            if f"{qualified}.{param}" in ALLOWED_DEFAULTS:
                continue
            passes = [param in keywords or param in positional[:n_args]
                      for _, _, n_args, keywords, _ in mine]
            splats = [splat for *_, splat in mine]
            if not any(passes) and not any(splats):
                faults.append((f"{qualified}.{param}", "no call passes it"))
            elif all(passes) and not any(splats):
                faults.append((f"{qualified}.{param}", "every call passes it"))
    return faults


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(SRC) == []


def test_a_definition_only_tests_call_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "traces.py", "a") as fh:
        fh.write("\n\ndef frobenius_trace(a_invariants, conductor, p):\n"
                 "    traces, _ = _trace_columns([a_invariants], [conductor], [p], None)\n"
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


def test_every_default_is_both_passed_and_omitted_by_the_package():
    assert idle_defaults(SRC) == []


def test_a_default_no_call_sets_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "stratify.py").read_text()
    anchor = "def bonferroni(p_values: Sequence[float]) -> BonferroniResult:\n"
    assert anchor in source
    (copy / "stratify.py").write_text(source.replace(anchor, (
        "def bonferroni(p_values: Sequence[float], alpha: float = 0.001) "
        "-> BonferroniResult:\n")))
    assert idle_defaults(copy) == [("stratify.bonferroni.alpha", "no call passes it")]


def test_a_default_every_call_overrides_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "confound.py").read_text()
    anchor = "             key: str, max_distance: float) -> MatchedPairs:\n"
    assert anchor in source
    (copy / "confound.py").write_text(source.replace(anchor, (
        "             key: str, max_distance: float = 500.0) -> MatchedPairs:\n")))
    # both calls pass max_distance, one by position through _part's arguments
    assert idle_defaults(copy) == [("confound.match_nn.max_distance",
                                    "every call passes it")]
