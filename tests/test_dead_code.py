"""No dead private helpers: each module-level ``_private`` function has a caller."""

import ast
from pathlib import Path

import contrastlab

PACKAGE = Path(contrastlab.__file__).resolve().parent


def _scan_package():
    """(module, name) of every private function, and every (module, name) referenced.

    A bare name counts within its own module, ``from .module import name``
    counts for that module, and an attribute access ``x.name`` counts for any
    module.
    """
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(module, node.name, node.lineno) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                referenced.add(("*", node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                referenced.update((node.module, alias.name) for alias in node.names)
    return defined, referenced


def test_every_private_function_is_referenced():
    defined, referenced = _scan_package()
    assert defined, "scan found no private functions; is the package path right?"
    unused = [f"{module}.py:{line} {name}" for module, name, line in defined
              if (module, name) not in referenced and ("*", name) not in referenced]
    assert not unused, f"private functions nothing in the package calls: {unused}"
