"""perfbench/pipeline.py's tracer wraps the program's functions by name
(``tr.wrap(owner, "attr", ...)``); every name it wraps must still resolve on
its module, or traced benchmark rounds stop with AttributeError.  Read with
ast; nothing under perfbench/ is imported or changed."""

import ast
import importlib
from pathlib import Path

PIPELINE = Path(__file__).resolve().parents[1] / "perfbench" / "pipeline.py"


def install_function():
    tree = ast.parse(PIPELINE.read_text(encoding="utf-8"))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "install")


def owners(install):
    """Local names of install bound to modules: its ``cli`` argument and
    every ``name = importlib.import_module("...")``."""
    found = {install.args.args[1].arg: importlib.import_module("thermobg.cli")}
    for node in ast.walk(install):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"):
            module = importlib.import_module(node.value.args[0].value)
            for target in node.targets:
                found[target.id] = module
    return found


def wrapped_names(install):
    """(owner expression, attribute) of every tr.wrap call."""
    calls = [node for node in ast.walk(install)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "tr.wrap"]
    return [(node.args[0], node.args[1].value) for node in calls]


def resolve(expr, modules):
    if isinstance(expr, ast.Name):
        return modules[expr.id]
    assert isinstance(expr, ast.Attribute), ast.unparse(expr)
    return getattr(resolve(expr.value, modules), expr.attr)


def test_every_traced_name_resolves():
    install = install_function()
    modules = owners(install)
    names = wrapped_names(install)
    assert len(names) > 20  # the parse found the wrap calls
    missing = [f"{ast.unparse(owner)}.{attr}" for owner, attr in names
               if not callable(getattr(resolve(owner, modules), attr, None))]
    assert not missing, f"traced names that no longer resolve: {missing}"


def test_engine_adapt_stays_bound():
    install = install_function()
    assert ("engine", "adapt") in [(ast.unparse(o), a)
                                   for o, a in wrapped_names(install)]
    assert callable(importlib.import_module("thermobg.engine").adapt)
