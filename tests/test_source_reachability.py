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

A parameter every call passes the same constant is the same knob without a
default: the value is a second copy, and other values are reached only by
tests.  So no parameter may be passed the same literal, tuple of literals or
ALL_CAPS name by every call in the package; calls count as for defaults, and
a splat counts as passing a value that varies.  A name bound once in the
calling function, by assignment or tuple unpacking, is the value bound to it.

An import is a use only of what the module then does with it: every name a
module of the package or of the tests imports, at the top or inside a
function, must be named elsewhere in that module.
"""

import ast
import shutil
from collections import Counter
from pathlib import Path
from typing import Iterator

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "murmurlab"

#: definitions that may go unreferenced in the package
ALLOWED = {
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


def _bound_once(fn: ast.FunctionDef) -> dict[str, ast.expr]:
    """Name -> value of each name fn binds once, by `name = value` or `a, b = x, y`."""
    stores = Counter(n.id for n in ast.walk(fn)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    stores.update(a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg))
    values = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    and len(target.elts) == len(value.elts)):
                pairs = zip(target.elts, value.elts)
            values.update((t.id, v) for t, v in pairs
                          if isinstance(t, ast.Name) and stores[t.id] == 1)
    return values


def _calls(module: str, tree) -> list[tuple[object, str, list, dict, bool]]:
    """(call, callee, positional arguments, keyword arguments, splat) of each call.

    The callee is "module.name" for a bare name the module defines or imports
    from a package module, else ".name"; a nested function of the same name
    as another module's function calls no function of that module.
    `_part(fn, *args, **kwargs)` is a call of fn with the arguments after it.
    An argument that is a name the innermost function around the call binds
    once is given as the value bound to it.
    """
    bound = {node.name: module for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            bound.update((alias.asname or alias.name, node.module) for alias in node.names)
    local = {}  # id of a node -> the names its innermost function binds once
    for fn in ast.walk(tree):  # breadth first, so an inner function overrides its outer
        if isinstance(fn, ast.FunctionDef):
            once = _bound_once(fn)
            local.update((id(node), once) for node in ast.walk(fn))
    calls = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        once = local.get(id(call), {})
        func, args = call.func, [once.get(a.id, a) if isinstance(a, ast.Name) else a
                                 for a in call.args]
        if isinstance(func, ast.Name) and func.id == "_part" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name) and func.id in bound:
            callee = f"{bound[func.id]}.{func.id}"
        elif isinstance(func, ast.Attribute):
            callee = "." + func.attr
        else:
            continue
        keywords = {k.arg: once.get(k.value.id, k.value) if isinstance(k.value, ast.Name)
                    else k.value for k in call.keywords if k.arg is not None}
        splat = (any(isinstance(a, ast.Starred) for a in args)
                 or any(k.arg is None for k in call.keywords))
        calls.append((call, callee, args, keywords, splat))
    return calls


def _called_functions(src: Path) -> Iterator[tuple[str, ast.FunctionDef, bool, list]]:
    """(qualified name, definition, is a method, its package calls) of each function."""
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
    for qualified, callees, fn, is_method in functions:
        own = {id(n) for n in ast.walk(fn)}
        yield (qualified, fn, is_method,
               [c for c in calls if c[1] in callees and id(c[0]) not in own])


def idle_defaults(src: Path) -> list[tuple[str, str]]:
    """(qualified parameter, fault) of each default no call sets, or every call sets."""
    faults = []
    for qualified, fn, is_method, mine in _called_functions(src):
        positional, defaulted = _defaulted(fn, is_method)
        for param in defaulted:
            if f"{qualified}.{param}" in ALLOWED_DEFAULTS:
                continue
            passes = [param in keywords or param in positional[:len(args)]
                      for _, _, args, keywords, _ in mine]
            splats = [splat for *_, splat in mine]
            if not any(passes) and not any(splats):
                faults.append((f"{qualified}.{param}", "no call passes it"))
            elif all(passes) and not any(splats):
                faults.append((f"{qualified}.{param}", "every call passes it"))
    return faults


def _constant(node) -> bool:
    """Whether an argument is a literal, a tuple of literals or an ALL_CAPS name."""
    if isinstance(node, ast.Tuple):
        return all(isinstance(elt, ast.Constant) for elt in node.elts)
    return isinstance(node, ast.Constant) or (isinstance(node, ast.Name)
                                              and node.id.isupper())


def constant_parameters(src: Path) -> list[str]:
    """Qualified name of each parameter without a default that every call passes alike."""
    found = []
    for qualified, fn, is_method, mine in _called_functions(src):
        if not mine or any(splat for *_, splat in mine):
            continue
        positional, defaulted = _defaulted(fn, is_method)
        kwonly = [a.arg for a in fn.args.kwonlyargs]
        for param in (p for p in positional + kwonly if p not in defaulted):
            values = [keywords.get(param, args[positional.index(param)]
                                   if param in positional[:len(args)] else None)
                      for _, _, args, keywords, _ in mine]
            if (None not in values and all(map(_constant, values))
                    and len({ast.dump(v) for v in values}) == 1):
                found.append(f"{qualified}.{param}")
    return found


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
    anchor = "def bonferroni(p_values: Sequence[float]) -> dict:\n"
    assert anchor in source
    (copy / "stratify.py").write_text(source.replace(anchor, (
        "def bonferroni(p_values: Sequence[float], alpha: float = 0.001) "
        "-> dict:\n")))
    assert idle_defaults(copy) == [("stratify.bonferroni.alpha", "no call passes it")]


def test_a_default_every_call_overrides_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "confound.py").read_text()
    anchor = ("             key: str, max_distance: float) "
              "-> tuple[tuple[int, int, float], ...]:\n")
    assert anchor in source
    (copy / "confound.py").write_text(source.replace(anchor, (
        "             key: str, max_distance: float = 500.0) "
        "-> tuple[tuple[int, int, float], ...]:\n")))
    # both calls pass max_distance by position
    assert idle_defaults(copy) == [("confound.match_nn.max_distance",
                                    "every call passes it")]


def test_no_parameter_is_passed_the_same_constant_by_every_call():
    assert constant_parameters(SRC) == []


def test_a_literal_every_call_passes_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    edits = {"confound.py": ("def invariant_correlation(table: CurveTable) -> float:\n",
                             "def invariant_correlation(table: CurveTable, x: str, y: str)"
                             " -> float:\n"),
             "cli.py": ("_part(confound.invariant_correlation, rank0)",
                        '_part(confound.invariant_correlation, rank0, "period", "conductor")')}
    for name, (anchor, replacement) in edits.items():
        source = (copy / name).read_text()
        assert anchor in source
        (copy / name).write_text(source.replace(anchor, replacement))
    # the one call passes both by position through _part's arguments
    assert constant_parameters(copy) == ["confound.invariant_correlation.x",
                                         "confound.invariant_correlation.y"]


def test_a_constant_name_or_tuple_by_position_or_keyword_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "windows.py", "a") as fh:
        fh.write("\n\ndef _scaled(values, factor, axes):\n"
                 "    return np.transpose(values * factor, axes)\n"
                 "\n\ndef _both(values):\n"
                 "    return (_scaled(values, SAVGOL_WINDOW, (1, 0)),\n"
                 "            _scaled(values, axes=(1, 0), factor=SAVGOL_WINDOW))\n")
    assert constant_parameters(copy) == ["windows._scaled.factor", "windows._scaled.axes"]


def test_a_value_that_varies_or_a_splat_is_not_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "windows.py", "a") as fh:
        fh.write("\n\ndef _scaled(values, factor):\n"
                 "    return values * factor\n"
                 "\n\ndef _shifted(values, offset):\n"
                 "    return values + offset\n"
                 "\n\ndef _all(values, *args):\n"
                 "    return (_scaled(values, SAVGOL_WINDOW), _scaled(values, SAVGOL_DEGREE),\n"
                 "            _shifted(values, 1), _shifted(*args))\n")
    assert constant_parameters(copy) == []


def test_a_constant_through_a_name_bound_once_is_caught(tmp_path):
    copy = tmp_path / "murmurlab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "windows.py", "a") as fh:
        fh.write("\n\ndef _scaled(values, factor, axes, shift):\n"
                 "    return np.transpose(values * factor, axes) + shift\n"
                 "\n\ndef _both(values):\n"
                 "    factor, axes = SAVGOL_WINDOW, (1, 0)\n"
                 "    shift = 2\n"
                 "    shift = shift + SAVGOL_DEGREE\n"
                 "    return (_scaled(values, factor, axes, shift),\n"
                 "            _scaled(values, factor=SAVGOL_WINDOW, axes=axes, shift=5))\n")
    # shift is bound twice, so its value is not known to be a constant
    assert constant_parameters(copy) == ["windows._scaled.factor", "windows._scaled.axes"]


def unused_imports(paths) -> list[str]:
    """"module.name" for each name a module imports and names nowhere else.

    `import a.b` binds a; `from __future__ import ...` binds nothing.
    """
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{path.stem}.{name}" for name in imported if name not in used]
    return found


def test_every_imported_name_is_used():
    assert unused_imports(sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])) == []


def test_an_unused_import_is_caught(tmp_path):
    copy = tmp_path / "windows.py"
    source = (SRC / "windows.py").read_text()
    anchor = "import numpy as np\n"
    assert anchor in source
    copy.write_text(source.replace(anchor, anchor + "import os.path\n") +
                    "\n\ndef _count(series):\n"
                    "    from .curves import MAX_INT64, NUMERIC_COLUMNS as columns\n"
                    "    return min(len(series), MAX_INT64)\n")
    assert unused_imports([copy]) == ["windows.os", "windows.columns"]
