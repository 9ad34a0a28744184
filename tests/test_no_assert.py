"""The package checks its invariants with raised errors, never `assert`.

`python -O` strips assert statements, so an invariant checked by one
would go unchecked there. The scan reads every module of the package
with `ast`, so the word in a docstring or comment does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patchvote"


def test_package_has_no_assert_statement():
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    )
    assert found == [], f"assert statements in the package: {found}"
