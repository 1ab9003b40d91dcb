"""The benchmark's names resolve against the package.

``perfbench`` traces contrastlab functions by name and reads their
arguments by position, so a rename, a move or a reordered signature would
silently stop a layer's spans or shift its work counts.  The benchmark is
read here with ``ast`` rather than imported, because ``perfbench/run.py``
sets BLAS environment variables when it is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(tree, target):
    """The literal value of every assignment to ``target`` anywhere in ``tree``."""
    return [ast.literal_eval(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == target for t in node.targets)]


def _traced_names():
    (traced,) = _assigned(_parse("run.py"), "TRACED_FUNCTIONS")
    layers = [name for names in _assigned(_parse("workloads.py"), "layers") for name in names]
    assert layers, "no workload declares its layers; is the pattern right?"
    return sorted(set(traced) | set(layers))


def _function(qualname):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"contrastlab.{module}"), name, None)


def _counter_reads():
    """(traced name, position, parameter name) of every ``_arg`` read in a
    ``COUNTERS`` function."""
    tree = _parse("spans.py")
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets)]
    counters = {fn.id: ast.literal_eval(key) for key, fn in zip(table.keys, table.values)}
    reads = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in counters:
            reads.extend((counters[node.name], call.args[2].value, call.args[3].value)
                         for call in ast.walk(node)
                         if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                         and call.func.id == "_arg")
    return reads


@pytest.mark.parametrize("qualname", _traced_names())
def test_traced_name_is_a_public_function_of_its_module(qualname):
    module, name = qualname.split(".")
    fn = _function(qualname)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"contrastlab.{module} has no function {name}"
    assert fn.__module__ == f"contrastlab.{module}", f"{qualname} is defined in {fn.__module__}"


@pytest.mark.parametrize("qualname,index,param", _counter_reads())
def test_counter_reads_the_named_parameter_at_its_position(qualname, index, param):
    params = [p.name for p in inspect.signature(_function(qualname)).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert index < len(params) and params[index] == param, (qualname, params)
