import ast
from pathlib import Path

import mvop


def test_library_has_no_bare_asserts():
    # python -O strips assert statements, so a guard written as one vanishes
    found = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"
