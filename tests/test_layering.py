"""The package's import layering, read from the source with ast: frameio is
a leaf, segment builds only on core, no module imports itself back through
the others, and the writer child's script imports only the standard
library.  And the package's attribute of each module's name is that
module."""

import ast
import importlib
import sys
import types
from pathlib import Path

PACKAGE = "thermobg"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = {p.stem for p in SRC.glob("*.py")}


def intra_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports ("__init__" for the
    package itself)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != PACKAGE:
                    continue
                target = parts[1:]
            elif node.level == 1:
                target = node.module.split(".") if node.module else []
            else:
                continue
            if target:
                found.add(target[0])
            else:  # from . import a, b: submodules, or names of __init__
                for alias in node.names:
                    found.add(alias.name if alias.name in MODULES
                              else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(module)
    return found


GRAPH = {m: intra_imports(m) for m in MODULES}


def test_source_found():
    assert {"core", "engine", "frameio", "segment", "cli"} <= MODULES


def test_frameio_is_a_leaf():
    assert GRAPH["frameio"] == set()


def test_segment_imports_only_core():
    assert GRAPH["segment"] == {"core"}


def test_no_import_cycle():
    done, on_path = set(), []

    def visit(m):
        if m in on_path:
            raise AssertionError(
                "import cycle: " + " -> ".join(on_path[on_path.index(m):] + [m]))
        if m in done:
            return
        on_path.append(m)
        for dep in sorted(GRAPH[m]):
            visit(dep)
        on_path.pop()
        done.add(m)

    for m in sorted(GRAPH):
        visit(m)


def test_package_attributes_are_the_modules():
    # no function is re-exported under its module's name, so
    # ``import thermobg.adapt as A`` binds the module
    import thermobg
    import thermobg.adapt as adapt_module
    import thermobg.fit as fit_module
    assert callable(adapt_module._search)
    assert callable(fit_module._seq_sum)
    for name in sorted(MODULES - {"__init__"}):
        module = importlib.import_module(f"{PACKAGE}.{name}")
        assert isinstance(module, types.ModuleType)
        assert getattr(thermobg, name) is module, name


def test_writer_child_imports_only_the_standard_library():
    # frameio runs _writer.py in a fresh interpreter: an import of numpy or
    # of the package there would be paid at every writer's start
    tree = ast.parse((SRC / "_writer.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
    assert imported and imported <= sys.stdlib_module_names, imported
