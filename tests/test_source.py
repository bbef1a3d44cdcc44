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


def test_library_raises_no_assertion_error():
    # library guards raise ArithmeticError or ValueError; AssertionError is for tests
    found = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in the library: {found}"
