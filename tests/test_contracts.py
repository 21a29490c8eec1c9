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
