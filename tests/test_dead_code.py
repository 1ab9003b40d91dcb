"""No dead code: each module-level function, class and constant of the
package is reached.

A private function or constant needs a reference in the package.  A public
function, class or constant needs one too, or else a reader outside the
package that is not a unit test: the acceptance tests, the shared test
helpers or the benchmark.  A constant is a module-level name in UPPER_CASE,
with or without a leading underscore.  An optional parameter needs a call,
anywhere in the package, the tests or the benchmark, that sets it, and one
that leaves it at its default.
"""

import ast
from pathlib import Path

import contrastlab

PACKAGE = Path(contrastlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
OUTSIDE_READERS = [TESTS / "test_acceptance.py", TESTS / "conftest.py",
                   *sorted((TESTS.parent / "perfbench").glob("*.py"))]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_constant(name):
    return name.lstrip("_").isupper()


def _scan_package():
    """(module, name, line, kind) of every module-level function, class and
    constant, and every (module, name) referenced.

    A bare name counts within its own module, ``from .module import name``
    counts for that module when the importing module also uses ``name``
    outside its imports, and an attribute access ``x.name`` counts for any
    module.  A definition's own body does not reach it.
    """
    defined, referenced, imported = [], set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in _parse(path).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                kind = "class" if isinstance(stmt, ast.ClassDef) else "function"
                defined.append((module, own, stmt.lineno, kind))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets
                         if isinstance(t, ast.Name) and _is_constant(t.id)]
                if len(names) == 1:
                    own = names[0]
                    defined.append((module, own, stmt.lineno, "constant"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    referenced.add((module, node.id))
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    referenced.add(("*", node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    imported.extend((module, alias.asname or alias.name, node.module, alias.name)
                                    for alias in node.names)
    referenced.update((source, name) for module, local, source, name in imported
                      if (module, local) in referenced)
    return defined, referenced


def _outside_names():
    """Every name, attribute and imported name in the readers outside the package."""
    names = set()
    for path in OUTSIDE_READERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def _unreached(defined, referenced, extra=frozenset()):
    return [f"{module}.py:{line} {name}" for module, name, line, _ in defined
            if (module, name) not in referenced and ("*", name) not in referenced
            and name not in extra]


def test_every_private_function_is_referenced():
    defined, referenced = _scan_package()
    private = [entry for entry in defined if entry[3] == "function"
               and entry[1].startswith("_") and not entry[1].startswith("__")]
    assert private, "scan found no private functions; is the package path right?"
    unused = _unreached(private, referenced)
    assert not unused, f"private functions nothing in the package calls: {unused}"


def test_every_constant_is_reached():
    defined, referenced = _scan_package()
    constants = [entry for entry in defined if entry[3] == "constant"]
    assert constants, "scan found no constants; is the package path right?"
    private = [entry for entry in constants if entry[1].startswith("_")]
    public = [entry for entry in constants if not entry[1].startswith("_")]
    unreached = (_unreached(private, referenced)
                 + _unreached(public, referenced, _outside_names()))
    assert not unreached, ("constants that no other package code, acceptance test or "
                           f"benchmark file reaches: {unreached}")


def _optional_parameters():
    """(module, function, parameter, line, index) of every parameter with a
    default in every package function and method.  ``index`` is the
    parameter's position among a call's positional arguments, ``None`` for
    keyword-only ones; a method's ``self`` is not counted, and an
    ``__init__`` is called by its class's name."""
    optional = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        classes = {id(item): node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = classes.get(id(node))
            name = owner if owner and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            bound = int(owner is not None)
            for i in range(len(positional) - len(node.args.defaults), len(positional)):
                optional.append((path.stem, name, positional[i].arg, node.lineno, i - bound))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    optional.append((path.stem, name, arg.arg, node.lineno, None))
    return optional


def _calls_by_name():
    """Every call in the package, the tests and the benchmark, keyed by the
    name it calls: ``f(...)`` and ``x.f(...)`` both count for ``f``."""
    calls = {}
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py")),
                 *sorted((TESTS.parent / "perfbench").glob("*.py"))]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, parameter, index):
    """Whether ``call`` passes ``parameter``: by keyword, through ``**``, or
    positionally, by holding argument ``index`` or a ``*`` argument."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return index is not None and any(i == index or isinstance(arg, ast.Starred)
                                     for i, arg in enumerate(call.args))


def test_every_optional_parameter_is_set():
    # An option that every caller leaves at its default is a constant.
    # Unit tests count as setters, because a reference implementation keeps
    # parameters that only the tests comparing against it vary.
    optional = _optional_parameters()
    assert optional, "scan found no optional parameters; is the package path right?"
    calls = _calls_by_name()
    unset = [f"{module}.py:{line} {function}({parameter})"
             for module, function, parameter, line, index in optional
             if not any(_sets(call, parameter, index) for call in calls.get(function, []))]
    assert not unset, f"optional parameters that no call sets: {unset}"


def test_every_default_is_relied_on():
    # A default that every call overrides is a second copy of a value its
    # callers own; the parameter should be required.
    optional = _optional_parameters()
    assert optional, "scan found no optional parameters; is the package path right?"
    calls = _calls_by_name()
    overridden = [f"{module}.py:{line} {function}({parameter})"
                  for module, function, parameter, line, index in optional
                  if all(_sets(call, parameter, index) for call in calls.get(function, []))]
    assert not overridden, f"defaults that every call overrides: {overridden}"


def test_every_public_definition_is_reached():
    defined, referenced = _scan_package()
    public = [entry for entry in defined
              if entry[3] != "constant" and not entry[1].startswith("_")]
    assert public, "scan found no public definitions; is the package path right?"
    unreached = _unreached(public, referenced, _outside_names())
    assert not unreached, ("public functions and classes that no other package code, "
                           f"acceptance test or benchmark file reaches: {unreached}")


def test_package_root_holds_only_its_docstring():
    # Callers import the submodule that owns a name, so the root re-exports
    # nothing, and pyproject.toml owns the version.
    body = _parse(PACKAGE / "__init__.py").body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), "__init__.py holds code"


def test_every_import_is_used():
    # A name a module imports and never uses is a dead dependency.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(f"{path.stem}.py:{node.lineno} {name}" for alias in node.names
                              if (name := (alias.asname or alias.name).split(".")[0])
                              not in used)
    assert not unused, f"imported names the module never uses: {unused}"


_WRITE_MODE = set("wax+")


def _file_writes(tree):
    """(enclosing qualified name, line) of every file write in ``tree``: an
    ``open`` whose mode writes, appends or creates, ``write_text``,
    ``write_bytes``, ``json.dump`` or a ``np.save*``.  An ``open`` whose mode
    is not a literal counts as a write."""
    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            owner = getattr(getattr(func, "value", None), "id", None)
            if name == "open":
                # open(path, mode) or path.open(mode)
                index = 1 if isinstance(func, ast.Name) else 0
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = modes[0] if modes else (node.args[index] if len(node.args) > index
                                               else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not _WRITE_MODE & set(mode.value)):
                    writes.append((scope, node.lineno))
            elif (name in ("write_text", "write_bytes")
                  or (owner == "json" and name == "dump")
                  or (owner in ("np", "numpy") and name and name.startswith("save"))):
                writes.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return writes


def test_run_report_write_is_the_only_file_writer():
    # Every artifact goes through one writer, which lists it in report.json.
    writes = [(f"{path.stem}.{scope}", line) for path in sorted(PACKAGE.glob("*.py"))
              for scope, line in _file_writes(_parse(path))]
    allowed = [entry for entry in writes if entry[0] == "cli.RunReport.write"]
    assert allowed, "scan found no write in RunReport.write; is the package path right?"
    others = [f"{scope}:{line}" for scope, line in writes if scope != "cli.RunReport.write"]
    assert not others, f"file writes outside RunReport.write: {others}"


def test_file_write_scan_sees_each_kind_of_write():
    # The scan flags each form of write it names and passes reads.
    source = '''
def f(path, fh, data, mode):
    open(path, "w"); open(path, mode="a"); open(path, "r+"); open(path, mode)
    path.open("x"); path.write_text("t"); path.write_bytes(b"t")
    json.dump(data, fh); np.save(path, data); np.savez(path, a=data)
    open(path); open(path, "r", encoding="utf-8"); path.open(); json.load(fh)
'''
    lines = [line for _, line in _file_writes(ast.parse(source))]
    assert lines == [3] * 4 + [4] * 3 + [5] * 3


def _unread_test_locals(tree, prefix):
    """(qualified test name, local name, line) of every local that a
    ``test_*`` function in ``tree`` assigns and never reads, and the number
    of tests scanned.  A read in a nested function counts; a name that
    starts with ``_`` is exempt."""
    unread, scanned = [], 0

    def visit(node, scope):
        nonlocal scanned
        if isinstance(node, ast.ClassDef):
            scope = f"{scope}::{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.startswith("test_"):
            scanned += 1
            stored, loaded = {}, set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    stored.setdefault(sub.id, sub.lineno)
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loaded.add(sub.id)
            unread.extend((f"{scope}::{node.name}", name, line)
                          for name, line in stored.items()
                          if name not in loaded and not name.startswith("_"))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, prefix)
    return unread, scanned


def test_every_test_local_is_read():
    # A test that assigns a value and never reads it checks less than its
    # name says.
    unread, scanned = [], 0
    for path in sorted(TESTS.glob("*.py")):
        found, count = _unread_test_locals(_parse(path), path.name)
        unread.extend(f"{test}: {name} (line {line})" for test, name, line in found)
        scanned += count
    assert scanned, "scan found no tests; is the tests path right?"
    assert not unread, f"test locals assigned and never read: {unread}"
