import ast
from pathlib import Path

import octogroup


def test_public_names_resolve():
    """Every name in __all__ is an attribute of the package, so a deleted
    export cannot linger in the public list."""
    assert len(set(octogroup.__all__)) == len(octogroup.__all__)
    missing = [name for name in octogroup.__all__ if not hasattr(octogroup, name)]
    assert missing == []


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so the package's invariants raise
    explicitly instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(octogroup.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
