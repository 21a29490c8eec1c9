"""Library contract checks must survive ``python -O``."""
import ast
from pathlib import Path

import ihscone


def test_library_has_no_assert_statements():
    # -O strips assert statements; contract checks raise
    # ContractViolationError instead
    package = Path(ihscone.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 11
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, node) for name, node in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export, so it is left out
    package = Path(ihscone.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in modules
        for name, node in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_fractions_only_where_rationals_are_needed():
    # the shell search, the wall pass and the rank-2 rays decide in
    # integers; Fraction belongs to rational linear algebra, the alpha
    # projection and the SVG drawing
    allowed = {"lattice.py", "polyhedra.py", "alphas.py", "svg.py"}
    package = Path(ihscone.__file__).parent
    importers = {
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    }
    assert importers <= allowed, sorted(importers - allowed)


def test_library_imports_at_module_level():
    # an import inside a function hides a module dependency and is paid
    # on every call
    package = Path(ihscone.__file__).parent
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []
